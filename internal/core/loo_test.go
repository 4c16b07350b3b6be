package core

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/obs"
	"cnnperf/internal/zoo"
)

// directEstimator is the reference leave-one-out training: a dataset
// built over LeaveOneOutModels(exclude) alone and a fresh Decision Tree.
func directEstimator(t *testing.T, exclude string, cfg Config) []byte {
	t.Helper()
	ds, _, err := BuildDatasetContext(context.Background(), LeaveOneOutModels(exclude), append([]string(nil), gpu.TrainingGPUs...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainEstimatorContext(context.Background(), ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalEstimator(est)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func marshalLeaveOneOut(t *testing.T, exclude string, cfg Config) []byte {
	t.Helper()
	est, err := LeaveOneOutEstimatorContext(context.Background(), exclude, cfg)
	if err != nil {
		t.Fatalf("exclude %q: %v", exclude, err)
	}
	b, err := MarshalEstimator(est)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLeaveOneOutMatchesDirectBuild checks that an estimator trained on
// the shared Table I dataset minus one model's rows is byte-identical
// to one trained on a dataset built without that model: for the full
// inventory, the first and last Table I model, and a zoo model outside
// Table I (which drops nothing), with and without a cache.
func TestLeaveOneOutMatchesDirectBuild(t *testing.T) {
	outside := ""
	for _, n := range zoo.Names() {
		if !slices.Contains(zoo.TableIOrder, n) {
			outside = n
			break
		}
	}
	if outside == "" {
		t.Fatal("every zoo model is in Table I")
	}
	excludes := []string{"", zoo.TableIOrder[0], zoo.TableIOrder[len(zoo.TableIOrder)-1], outside}

	cfg := DefaultConfig()
	cfg.Cache = analysiscache.New(0)
	for _, ex := range excludes {
		want := directEstimator(t, ex, cfg)
		if got := marshalLeaveOneOut(t, ex, cfg); !bytes.Equal(got, want) {
			t.Errorf("exclude %q: shared-dataset estimator differs from a direct build", ex)
		}
	}
	// The uncached call takes the same path: build the full dataset,
	// drop the rows, train.
	uncached := DefaultConfig()
	ex := zoo.TableIOrder[len(zoo.TableIOrder)-1]
	if got, want := marshalLeaveOneOut(t, ex, uncached), directEstimator(t, ex, cfg); !bytes.Equal(got, want) {
		t.Errorf("exclude %q: uncached estimator differs from a direct build", ex)
	}
}

// TestLeaveOneOutSharesDataset checks that leave-one-out estimators on
// one cache share one dataset build: concurrent first estimators agree
// with later ones, a later estimator generates and analyses no model,
// and training does not modify the shared rows.
func TestLeaveOneOutSharesDataset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache = analysiscache.New(0)
	ctx := context.Background()
	excludes := []string{"", "alexnet", "mobilenet"}
	first := make([][]byte, len(excludes))
	var wg sync.WaitGroup
	for i, ex := range excludes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, err := LeaveOneOutEstimatorContext(ctx, ex, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			first[i], _ = MarshalEstimator(est)
		}()
	}
	wg.Wait()
	for i, ex := range excludes {
		if !bytes.Equal(first[i], marshalLeaveOneOut(t, ex, cfg)) {
			t.Errorf("exclude %q: concurrent estimator differs from a later one", ex)
		}
	}
	shared, err := tableIDataset(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(zoo.TableIOrder) * len(gpu.TrainingGPUs); shared.Len() != want {
		t.Fatalf("Table I dataset has %d rows, want %d", shared.Len(), want)
	}
	before := withoutModel(shared, "").Rows // a deep copy

	tr := obs.NewTracer()
	if _, err := LeaveOneOutEstimatorContext(obs.WithTracer(ctx, tr), "vgg16", cfg); err != nil {
		t.Fatal(err)
	}
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		switch sp.Name() {
		case "ptx.codegen", "model.analyze", "dataset.build":
			t.Errorf("second leave-one-out estimator recorded a %s span", sp.Name())
		}
		for _, ch := range sp.Children() {
			walk(ch)
		}
	}
	roots := tr.Roots()
	if len(roots) == 0 {
		t.Fatal("second estimator recorded no span")
	}
	for _, sp := range roots {
		walk(sp)
	}
	if again, _ := tableIDataset(ctx, cfg); again != shared {
		t.Error("the Table I dataset was rebuilt on a shared cache")
	}
	for i, r := range shared.Rows {
		if r.Tag != before[i].Tag || r.Y != before[i].Y || !slices.Equal(r.X, before[i].X) {
			t.Fatalf("row %d of the shared dataset changed during training", i)
		}
	}
}
