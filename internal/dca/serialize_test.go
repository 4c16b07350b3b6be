package dca

import (
	"bytes"
	"reflect"
	"testing"

	"cnnperf/internal/ptxgen"
)

func TestKernelReportRoundTrip(t *testing.T) {
	k := parseOne(t, "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n")
	l := ptxgen.Launch{Kernel: "k", GridX: 4, BlockX: 64, Threads: 200,
		Params: map[string]int64{"p0": 1 << 20}, WorkingSetBytes: 1 << 16}
	r, err := AnalyzeKernelLaunch(k, l, Options{SkipLint: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalKernelReport(&r)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalKernelReport(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Errorf("round-tripped report differs:\n got %+v\nwant %+v", *got, r)
	}
	b2, err := MarshalKernelReport(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("re-marshal is not byte-identical")
	}
}

func TestSerializeRejections(t *testing.T) {
	if _, err := MarshalKernelReport(nil); err == nil {
		t.Error("nil report marshaled")
	}
	if _, err := UnmarshalKernelReport([]byte(`{"version":99,"report":{}}`)); err == nil {
		t.Error("future report version accepted")
	}
}
