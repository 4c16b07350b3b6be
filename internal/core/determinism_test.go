package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/cnn"
	"cnnperf/internal/core"
	"cnnperf/internal/gpu"
	"cnnperf/internal/gpusim"
	"cnnperf/internal/obs"
	"cnnperf/internal/zoo"
)

// workerCounts are the pool sizes every determinism test sweeps: the
// sequential baseline, a fixed mid-size pool, and whatever the host has.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// datasetCSV builds the dataset with the given configuration and
// serializes it, so different pipeline configurations can be compared
// byte for byte.
func datasetCSV(t *testing.T, models []string, cfg core.Config) string {
	t.Helper()
	ds, _, err := core.BuildDataset(models, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatalf("BuildDataset(workers=%d): %v", cfg.Workers, err)
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestBuildDatasetDeterministicAcrossWorkers asserts the tentpole
// guarantee: the serialized dataset is byte-identical no matter how many
// workers built it, with and without the analysis cache.
func TestBuildDatasetDeterministicAcrossWorkers(t *testing.T) {
	models := []string{"alexnet", "mobilenet", "mobilenetv2", "squeezenet"}
	cases := []struct {
		name  string
		cache bool
	}{
		{"uncached", false},
		{"cached", true},
	}
	baseline := datasetCSV(t, models, core.Config{Workers: 1})
	if baseline == "" {
		t.Fatal("empty baseline CSV")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range workerCounts() {
				cfg := core.Config{Workers: w}
				if tc.cache {
					cfg.Cache = analysiscache.New(0)
				}
				if got := datasetCSV(t, models, cfg); got != baseline {
					t.Errorf("workers=%d cache=%t dataset differs from sequential uncached baseline:\n%s\nvs\n%s",
						w, tc.cache, got, baseline)
				}
			}
		})
	}
}

// TestCacheEquivalenceFullZoo runs the full Table I inventory — the
// paper's actual phase-1 workload — through the memoized pipeline and
// requires the rows to match the uncached build exactly, while the cache
// must have been genuinely exercised.
func TestCacheEquivalenceFullZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-zoo dataset builds in -short mode")
	}
	workers := runtime.GOMAXPROCS(0)
	uncached := datasetCSV(t, zoo.TableIOrder, core.Config{Workers: workers})
	cache := analysiscache.New(0)
	cached := datasetCSV(t, zoo.TableIOrder, core.Config{Workers: workers, Cache: cache})
	if cached != uncached {
		t.Fatal("cached full-zoo dataset differs from uncached build")
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Fatalf("full-zoo build never hit the cache: %s", s)
	}
	t.Logf("full-zoo cache: %s", s)
}

// TestEvaluateRegressorsDeterministicAcrossWorkers asserts the Table II
// evaluation rows do not depend on the worker count.
func TestEvaluateRegressorsDeterministicAcrossWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	ds, _, err := core.BuildDataset([]string{"alexnet", "mobilenet", "mobilenetv2", "squeezenet"}, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, eval, err := ds.Split(0.7, cfg.SplitSeed)
	if err != nil {
		t.Fatal(err)
	}
	var baseline string
	for _, w := range workerCounts() {
		evals, err := core.EvaluateRegressorsContext(context.Background(),
			train, eval, core.DefaultRegressors(cfg.SplitSeed), w)
		if err != nil {
			t.Fatalf("EvaluateRegressorsContext(workers=%d): %v", w, err)
		}
		got := fmt.Sprintf("%+v", evals)
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Errorf("workers=%d evaluations differ:\n%s\nvs\n%s", w, got, baseline)
		}
	}
}

// TestFrequencySweepDeterministicAcrossWorkers asserts the DVFS sweep
// points are identical for every worker count.
func TestFrequencySweepDeterministicAcrossWorkers(t *testing.T) {
	a, err := core.AnalyzeCNN("alexnet", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.MustLookup("gtx1080ti")
	clocks := []float64{800, 1000, 1200, 1400, 1582, 1800}
	var baseline string
	for _, w := range workerCounts() {
		points, err := gpusim.FrequencySweep(a.Report, spec, clocks, gpusim.Config{NoisePct: -1, Workers: w})
		if err != nil {
			t.Fatalf("FrequencySweep(workers=%d): %v", w, err)
		}
		raw, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == "" {
			baseline = string(raw)
			continue
		}
		if string(raw) != baseline {
			t.Errorf("workers=%d sweep differs:\n%s\nvs\n%s", w, raw, baseline)
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// pre-test level (small slack for runtime helpers) or the deadline hits.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after worker-pool failure", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildDatasetFirstErrorPropagation plants a structurally broken
// model mid-list and requires the pool to abort with its error — under
// every worker count — without leaking goroutines.
func TestBuildDatasetFirstErrorPropagation(t *testing.T) {
	models := []*cnn.Model{
		zoo.MustBuild("alexnet"),
		zoo.MustBuild("mobilenet"),
		&cnn.Model{Name: "broken"}, // fails validation: no output node
		zoo.MustBuild("mobilenetv2"),
		zoo.MustBuild("squeezenet"),
	}
	for _, w := range workerCounts() {
		before := runtime.NumGoroutine()
		_, _, err := core.BuildDatasetFromModelsContext(context.Background(),
			models, gpu.TrainingGPUs, core.Config{Workers: w})
		if err == nil {
			t.Fatalf("workers=%d: broken model did not fail the build", w)
		}
		if !strings.Contains(err.Error(), "broken") {
			t.Fatalf("workers=%d: error does not name the broken model: %v", w, err)
		}
		waitForGoroutines(t, before)
	}
}

// TestBuildDatasetPreCancelledContext requires an already-cancelled
// context to abort the build before any analysis work runs.
func TestBuildDatasetPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	_, _, err := core.BuildDatasetContext(ctx, []string{"alexnet"}, gpu.TrainingGPUs, core.Config{Workers: 4})
	if err == nil {
		t.Fatal("cancelled context did not abort the build")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error is not the cancellation: %v", err)
	}
	waitForGoroutines(t, before)
}

// TestTracingDeterminism proves span recording is an observer, not a
// participant: the full predict path (leave-one-out training, analysis,
// per-GPU scoring) returns byte-identical results under a live tracer
// and under a bare context, and the traced run really recorded spans.
func TestTracingDeterminism(t *testing.T) {
	model := "alexnet"
	gpus := []string{gpu.TrainingGPUs[0]}

	run := func(ctx context.Context) string {
		cfg := core.DefaultConfig()
		cfg.Cache = analysiscache.New(0)
		preds, a, err := core.PredictCNNContext(ctx, model, gpus, cfg)
		if err != nil {
			t.Fatalf("PredictCNNContext: %v", err)
		}
		blob, err := json.Marshal(struct {
			Preds    []core.Prediction
			Executed int64
		}{preds, a.Report.Executed})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	bare := run(context.Background())
	tracer := obs.NewTracer()
	traced := run(obs.WithTracer(context.Background(), tracer))
	if traced != bare {
		t.Fatalf("tracing changed prediction output:\nbare:   %s\ntraced: %s", bare, traced)
	}
	if tracer.SpanCount() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	totals := tracer.StageTotals()
	for _, want := range []string{"model.analyze", "dca.analyze", "mlearn.train", "features", "predict"} {
		if _, ok := totals[want]; !ok {
			t.Errorf("traced run missing %q spans (have %v)", want, totals)
		}
	}
}
