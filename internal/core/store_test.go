package core

import (
	"context"
	"reflect"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/gpu"
	"cnnperf/internal/zoo"
)

// TestStoreServedPredictions is the store-level property of the
// persistent artifact tier: predictions served from disk artifacts are
// bit-identical to freshly computed ones, for the zoo on both training
// GPUs. Pass A computes everything through a write-through tier backed
// by a temp store; pass B reopens the same store behind a cold memory
// cache and must (a) never re-train the estimator, (b) actually serve
// analyses from disk, and (c) reproduce the exact IPCs.
func TestStoreServedPredictions(t *testing.T) {
	models := append([]string(nil), zoo.TableIOrder...)
	if testing.Short() {
		models = models[:4]
	}
	gpus := append([]string(nil), gpu.TrainingGPUs...)
	ctx := context.Background()
	dir := t.TempDir()

	// pass opens the store fresh each time (proving the artifacts live
	// on disk, not in a shared handle) and predicts every model.
	pass := func(allowTraining bool) (map[string][]Prediction, analysiscache.Stats) {
		store, err := artifactstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tier, err := NewArtifactTier(store)
		if err != nil {
			t.Fatal(err)
		}
		tier.SetBaseContext(ctx)
		cache := analysiscache.New(0)
		cache.SetSecondTier(tier)
		cfg := Config{Cache: cache}

		estAny, _, err := cache.GetOrCompute(EstimatorKey("", cfg), func() (any, error) {
			if !allowTraining {
				t.Error("estimator re-trained despite a persisted artifact")
			}
			return LeaveOneOutEstimatorContext(ctx, "", cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		est := estAny.(*Estimator)

		preds := make(map[string][]Prediction, len(models))
		for _, m := range models {
			a, err := AnalyzeCNNContext(ctx, m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			p, err := PredictAnalyzedContext(ctx, est, a, gpus)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			preds[m] = p
		}
		return preds, cache.Stats()
	}

	fresh, _ := pass(true)
	served, stats := pass(false)

	if stats.DiskHits == 0 {
		t.Error("second pass never hit the disk tier")
	}
	for _, m := range models {
		f, s := fresh[m], served[m]
		if len(f) != len(gpus) {
			t.Fatalf("%s: %d predictions, want %d", m, len(f), len(gpus))
		}
		for i := range f {
			if f[i].IPC <= 0 {
				t.Errorf("%s/%s: non-positive IPC %v", m, f[i].GPU, f[i].IPC)
			}
		}
		// reflect.DeepEqual compares float64 with ==: bit-identical, not
		// merely close.
		if !reflect.DeepEqual(f, s) {
			t.Errorf("%s: disk-served predictions differ:\n fresh %+v\nserved %+v", m, f, s)
		}
	}
}

// TestConfigFingerprintGolden pins the fingerprint of the default
// configuration. Stored estimators are keyed by it (EstimatorKey), so a
// change to its bytes orphans every estimator already on disk.
func TestConfigFingerprintGolden(t *testing.T) {
	const want = "dcee093779b9bc470c0774334358d11dbb9c4b627e61a53953c30add5ee9a007"
	if got := ConfigFingerprint(DefaultConfig()); got != want {
		t.Errorf("ConfigFingerprint(DefaultConfig()) = %s, want %s", got, want)
	}
}
