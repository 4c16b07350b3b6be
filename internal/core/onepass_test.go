package core

import (
	"context"
	"reflect"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// TestPTXAnalysisMissCount checks that a raw-PTX analysis derives each
// kernel's facts once: with a fresh cache, N distinct kernels launched
// once each cost exactly 2N misses — one static analysis (ptxa) and one
// launch report (dca) per kernel. The lint gate reads the static
// analysis and adds none, and the compiled slice is built in memory,
// never looked up.
func TestPTXAnalysisMissCount(t *testing.T) {
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for _, k := range prog.Module.Kernels {
		distinct[analysiscache.Fingerprint(k)] = true
	}
	c := analysiscache.New(0)
	if _, err := AnalyzePTXContext(context.Background(), ptx.Print(prog.Module), PTXOptions{}, Config{Cache: c}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Stats().Misses, uint64(2*len(distinct)); got != want {
		t.Errorf("%d distinct kernels cost %d misses, want %d", len(distinct), got, want)
	}
}

// TestPTXAnalysisErrors pins the error texts of the two payloads the
// static pass accepts but the DCA rejects: the static pass runs first,
// and the DCA's messages must not depend on it.
func TestPTXAnalysisErrors(t *testing.T) {
	const hdr = ".version 6.0\n.target sm_61\n.address_size 64\n"
	const undef = ".visible .entry k(\n.param .u64 p0\n)\n{\nadd.s32 %r1, %r2, 1;\nret;\n}\n"
	const empty = ".visible .entry e(\n.param .u64 p0\n)\n{\n}\n"
	for _, c := range []struct{ name, src, want string }{
		{"use before def", hdr + undef,
			"core: dca: kernel k rejected by static analysis: register %r2 may be read before it is written (1 error diagnostics)"},
		{"empty body", hdr + empty, `core: dca: cfg: kernel "e" has an empty body`},
		// The gate runs over every kernel before any executes.
		{"both", hdr + empty + undef,
			"core: dca: kernel k rejected by static analysis: register %r2 may be read before it is written (1 error diagnostics)"},
	} {
		for _, cache := range []*analysiscache.Cache{nil, analysiscache.New(0)} {
			_, err := AnalyzePTXContext(context.Background(), c.src, PTXOptions{}, Config{Cache: cache})
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (cache %t): error %v, want %q", c.name, cache != nil, err, c.want)
			}
		}
	}
}

// TestPTXAnalysisStaticSpan checks that the raw-PTX path records its
// static pass as a "static.analysis" span ahead of the DCA that reads
// it, and that the gate still records "dca.lint". By default the pass
// runs the gate level only, so it has no "absint" child; with
// StaticFeatures it runs the full level and keeps the per-kernel
// "absint" span.
func TestPTXAnalysisStaticSpan(t *testing.T) {
	const src = ".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nret;\n}\n"
	for _, c := range []struct {
		name       string
		cfg        Config
		wantStatic []string
	}{
		{"default", Config{Cache: analysiscache.New(0)}, nil},
		{"static features", Config{Cache: analysiscache.New(0), StaticFeatures: true}, []string{"absint"}},
	} {
		tr := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := AnalyzePTXContext(ctx, src, PTXOptions{}, c.cfg); err != nil {
			t.Fatal(err)
		}
		roots := tr.Roots()
		if len(roots) != 1 || roots[0].Name() != "model.analyze" {
			t.Fatalf("%s: roots %v, want one model.analyze", c.name, roots)
		}
		var stages []string
		children := make(map[string][]string)
		for _, sp := range roots[0].Children() {
			stages = append(stages, sp.Name())
			for _, ch := range sp.Children() {
				children[sp.Name()] = append(children[sp.Name()], ch.Name())
			}
		}
		if want := []string{"ptx.parse", "static.analysis", "dca.analyze"}; !reflect.DeepEqual(stages, want) {
			t.Errorf("%s: stages %v, want %v", c.name, stages, want)
		}
		if got := children["static.analysis"]; !reflect.DeepEqual(got, c.wantStatic) {
			t.Errorf("%s: static.analysis children %v, want %v", c.name, got, c.wantStatic)
		}
		if got := children["dca.analyze"]; len(got) == 0 || got[0] != "dca.lint" {
			t.Errorf("%s: dca.analyze children %v, want dca.lint first", c.name, got)
		}
	}
}
