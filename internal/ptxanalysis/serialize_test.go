package ptxanalysis

import (
	"bytes"
	"reflect"
	"testing"
)

// serializeLoopBody exercises loop depth, pressure and mix so the persisted view
// has non-trivial content in every field.
const serializeLoopBody = `
	mov.u32 %r1, 0;
	mov.u32 %r4, 0;
OUTER:
	mov.u32 %r2, 0;
INNER:
	add.s32 %r2, %r2, 1;
	add.s32 %r4, %r4, %r2;
	setp.lt.s32 %p2, %r2, 8;
	@%p2 bra INNER;
	add.s32 %r1, %r1, 1;
	setp.lt.s32 %p1, %r1, 4;
	@%p1 bra OUTER;
	st.global.u32 [%rd1], %r4;
	ret;
`

// reducedView strips a fresh analysis down to the fields the serializer
// persists, mirroring what the rest of the pipeline consumes.
func reducedView(a *KernelAnalysis) *KernelAnalysis {
	return &KernelAnalysis{
		Kernel:       a.Kernel,
		Static:       a.Static,
		MaxLoopDepth: a.MaxLoopDepth,
		Pressure:     a.Pressure,
		Mix:          a.Mix,
		Blocks:       a.Blocks,
		Diags:        a.Diags,
	}
}

func TestKernelAnalysisRoundTrip(t *testing.T) {
	for _, body := range []string{diamondBody, serializeLoopBody} {
		k := parseKernel(t, body)
		a, err := AnalyzeKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalKernelAnalysis(a)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := UnmarshalKernelAnalysis(b)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !reflect.DeepEqual(got, reducedView(a)) {
			t.Errorf("round trip lost data:\n got %+v\nwant %+v", got, reducedView(a))
		}
		// Re-marshal of the reduced view is byte-identical.
		b2, err := MarshalKernelAnalysis(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Error("re-marshal is not byte-identical")
		}
	}
}

func TestKernelAnalysisRejections(t *testing.T) {
	if _, err := MarshalKernelAnalysis(nil); err == nil {
		t.Error("nil analysis marshaled")
	}
	cases := map[string]string{
		"not json":       "@@@",
		"future version": `{"version":99}`,
		"negative size":  `{"version":1,"static":-3}`,
		"negative depth": `{"version":1,"max_loop_depth":-1}`,
	}
	for name, payload := range cases {
		if _, err := UnmarshalKernelAnalysis([]byte(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
