package core

import (
	"context"
	"reflect"
	"runtime"
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

// The cold raw-PTX bounds below are the counts and bytes
// TestAnalyzePTXColdAllocs and TestAnalyzePTXColdStaticAllocs measure
// on linux/amd64, Go 1.24, plus 5 %: at the gate level 1 670 allocs and
// 237 384 bytes, with static features 3 053 allocs and 416 063 bytes.
const (
	coldAllocLimit       = 1753
	coldBytesLimit       = 249253
	coldStaticAllocLimit = 3205
	coldStaticBytesLimit = 436866
)

// allocsPerRun is testing.AllocsPerRun also returning the bytes
// allocated per run.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// coldPTXAllocs measures one analysis of the alexnet batch-16 module
// (19 kernels) under cfg against a fresh cache, as
// BenchmarkAnalyzePTXCold runs it, and fails when it allocates more
// than allocLimit objects or bytesLimit bytes. The cache itself is
// built inside the measured function.
func coldPTXAllocs(t *testing.T, cfg Config, allocLimit, bytesLimit int) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	src := ptx.Print(prog.Module)
	ctx := context.Background()
	allocs, bytes := allocsPerRun(20, func() {
		cfg := cfg
		cfg.Cache = analysiscache.New(0)
		if _, err := AnalyzePTXContext(ctx, src, PTXOptions{}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold raw-PTX alexnet analysis: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > float64(allocLimit) {
		t.Errorf("cold raw-PTX alexnet analysis: %.0f allocs, want <= %d", allocs, allocLimit)
	}
	if bytes > float64(bytesLimit) {
		t.Errorf("cold raw-PTX alexnet analysis: %.0f bytes, want <= %d", bytes, bytesLimit)
	}
}

// TestAnalyzePTXColdAllocs gates the allocations of the cold raw-PTX
// path at the default, gate-level configuration.
func TestAnalyzePTXColdAllocs(t *testing.T) {
	coldPTXAllocs(t, Config{}, coldAllocLimit, coldBytesLimit)
}

// TestAnalyzePTXColdStaticAllocs gates the cold raw-PTX path with
// static features, where the static pass runs the full level: the DCA
// compiles from the bodies that pass decoded, so no body is decoded
// twice (a second decode of every kernel exceeds the bytes bound).
func TestAnalyzePTXColdStaticAllocs(t *testing.T) {
	coldPTXAllocs(t, Config{StaticFeatures: true}, coldStaticAllocLimit, coldStaticBytesLimit)
}

// TestAnalyzePTXBlockVisits: under BBFeatures a raw-PTX analysis
// records every launch's block visits, as a zoo-model analysis does,
// one count per CFG block, and the entry block runs at least once per
// thread.
func TestAnalyzePTXBlockVisits(t *testing.T) {
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Module
	cfg := Config{BBFeatures: true, Cache: analysiscache.New(0)}
	a, err := AnalyzePTXContext(context.Background(), ptx.Print(m), PTXOptions{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Kernels) != len(m.Kernels) {
		t.Fatalf("%d launches for %d kernels", len(a.Report.Kernels), len(m.Kernels))
	}
	for i, kr := range a.Report.Kernels {
		g := a.Static.Kernels[i].CFG
		if len(kr.BlockVisits) != len(g.Blocks) {
			t.Errorf("%s: %d block visit counts for %d blocks", kr.Kernel, len(kr.BlockVisits), len(g.Blocks))
		} else if kr.BlockVisits[0] < kr.Threads {
			t.Errorf("%s: entry block visited %d times by %d threads", kr.Kernel, kr.BlockVisits[0], kr.Threads)
		}
	}
}
