package core

import (
	"context"
	"reflect"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// TestGateFullReportEquivalence checks, for every zoo model under the
// default configuration, that the DCA reads the same facts off the gate
// level of the static analysis as off the full level: the gates are
// equal, and the reports built from them agree in Executed, PerClass
// and, per launch, BlockVisits and SliceFraction. The reports record
// block visits, so the CFG the collapse reads is compared too.
func TestGateFullReportEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, name := range zoo.Names() {
		prog, err := ptxgen.Compile(zoo.MustBuild(name), DefaultConfig().PTX)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gateCache, fullCache := analysiscache.New(0), analysiscache.New(0)
		gate, static, err := staticPass(ctx, prog.Module, Config{Cache: gateCache})
		if err != nil {
			t.Fatalf("%s: gate pass: %v", name, err)
		}
		if static != nil {
			t.Fatalf("%s: the default pass returned a full analysis", name)
		}
		_, full, err := staticPass(ctx, prog.Module, Config{Cache: fullCache, StaticFeatures: true})
		if err != nil {
			t.Fatalf("%s: full pass: %v", name, err)
		}
		// The gate pass's Decoded belong to that call, so only the
		// cached levels compare.
		if fg := full.Gate(); !reflect.DeepEqual(gate.Kernels, fg.Kernels) || !reflect.DeepEqual(gate.Digests, fg.Digests) {
			t.Fatalf("%s: the gate level differs from the full level's gate", name)
		}
		gr, err := dca.AnalyzeProgramContext(ctx, prog, dca.Options{Cache: gateCache, BlockCounts: true, Static: gate})
		if err != nil {
			t.Fatalf("%s: dca over gates: %v", name, err)
		}
		fr, err := dca.AnalyzeProgramContext(ctx, prog, dca.Options{Cache: fullCache, BlockCounts: true, Static: full.Gate()})
		if err != nil {
			t.Fatalf("%s: dca over full analyses: %v", name, err)
		}
		if gr.Executed != fr.Executed || !reflect.DeepEqual(gr.PerClass, fr.PerClass) {
			t.Errorf("%s: executed %d %v over gates, %d %v over full analyses",
				name, gr.Executed, gr.PerClass, fr.Executed, fr.PerClass)
		}
		if len(gr.Kernels) != len(fr.Kernels) {
			t.Fatalf("%s: %d launches over gates, %d over full analyses", name, len(gr.Kernels), len(fr.Kernels))
		}
		for i := range gr.Kernels {
			g, f := &gr.Kernels[i], &fr.Kernels[i]
			if g.SliceFraction != f.SliceFraction || !reflect.DeepEqual(g.BlockVisits, f.BlockVisits) {
				t.Errorf("%s launch %d (%s): slice %v visits %v over gates, slice %v visits %v over full analyses",
					name, i, g.Kernel, g.SliceFraction, g.BlockVisits, f.SliceFraction, f.BlockVisits)
			}
		}
	}
}

// spanNames counts the recorded spans by name.
func spanNames(tr *obs.Tracer) map[string]int {
	out := make(map[string]int)
	for name, st := range tr.StageTotals() {
		out[name] = st.Count
	}
	return out
}

// TestPredictRunsGateLevel checks which level each configuration runs.
// A default analysis runs the gate level only: no abstract
// interpretation, no ModelAnalysis.Static, and an estimator whose
// schema reads the static block refuses it. With StaticFeatures or
// BBFeatures set, ModelAnalysis.Static is the full analysis, equal to
// an uncached AnalyzeModule, so the feature tables are unchanged.
func TestPredictRunsGateLevel(t *testing.T) {
	m := zoo.MustBuild("alexnet")
	prog, err := ptxgen.Compile(m, DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ptxanalysis.AnalyzeModule(prog.Module)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		edit     func(*Config)
		wantFull bool
	}{
		{"default", func(*Config) {}, false},
		{"static features", func(c *Config) { c.StaticFeatures = true }, true},
		{"bb features", func(c *Config) { c.BBFeatures = true }, true},
	} {
		cfg := DefaultConfig()
		cfg.Cache = analysiscache.New(0)
		c.edit(&cfg)
		tr := obs.NewTracer()
		a, err := AnalyzeModelContext(obs.WithTracer(context.Background(), tr), m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spans := spanNames(tr)
		if spans["static.analysis"] != 1 {
			t.Errorf("%s: %d static.analysis spans, want 1", c.name, spans["static.analysis"])
		}
		if !c.wantFull {
			if spans["absint"] != 0 || a.Static != nil {
				t.Errorf("%s: %d absint spans, Static %v; want none", c.name, spans["absint"], a.Static != nil)
			}
			continue
		}
		distinct := make(map[string]bool)
		for _, k := range prog.Module.Kernels {
			distinct[analysiscache.Fingerprint(k)] = true
		}
		if spans["absint"] != len(distinct) {
			t.Errorf("%s: %d absint spans, want one per distinct kernel (%d)", c.name, spans["absint"], len(distinct))
		}
		if a.Static == nil {
			t.Fatalf("%s: no full analysis", c.name)
		}
		if !reflect.DeepEqual(a.Static.Features(), want.Features()) || !reflect.DeepEqual(a.Static.Kernels, want.Kernels) {
			t.Errorf("%s: the full analysis differs from an uncached AnalyzeModule", c.name)
		}
	}

	a, err := AnalyzeModelContext(context.Background(), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Schema: StaticFeatureNames}
	if _, err := est.Predict(a, gpu.MustLookup("t4")); err == nil {
		t.Error("a static-schema estimator scored a gate-level analysis")
	}
}

// coldAllocLimit bounds TestAnalyzePTXColdAllocs: the measured count of
// one cold raw-PTX alexnet analysis (2 120 on linux/amd64, Go 1.24)
// plus 5 %.
const coldAllocLimit = 2226

// TestAnalyzePTXColdAllocs gates the allocations of the cold raw-PTX
// path: one analysis of the alexnet batch-16 module (19 kernels)
// against a fresh cache, as BenchmarkAnalyzePTXCold runs it. The cache
// itself is built inside the measured function.
func TestAnalyzePTXColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	src := ptx.Print(prog.Module)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AnalyzePTXContext(ctx, src, PTXOptions{}, Config{Cache: analysiscache.New(0)}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold raw-PTX alexnet analysis: %.0f allocs", allocs)
	if allocs > coldAllocLimit {
		t.Fatalf("cold raw-PTX alexnet analysis: %.0f allocs, want <= %d", allocs, coldAllocLimit)
	}
}
