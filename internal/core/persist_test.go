package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
)

// savedEstimator trains a Decision Tree on alexnet and mobilenet on the
// training GPUs under cfg's schema and returns its saved envelope.
func savedEstimator(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	ds, _, err := BuildDataset([]string{"alexnet", "mobilenet"}, gpu.TrainingGPUs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withSchema rewrites the schema of a saved estimator envelope.
func withSchema(tb testing.TB, saved []byte, schema []string) string {
	tb.Helper()
	var env map[string]any
	if err := json.Unmarshal(saved, &env); err != nil {
		tb.Fatal(err)
	}
	env["schema"] = schema
	b, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// FuzzLoadEstimator throws corrupted estimator envelopes at
// LoadEstimator, as a hostile `est` store record or estimator file
// would arrive: it must never panic, and any estimator it loads must
// predict a positive IPC or return an error on a fixed analysis that
// carries every feature block.
func FuzzLoadEstimator(f *testing.F) {
	base := savedEstimator(f, Config{})
	static := savedEstimator(f, Config{StaticFeatures: true})
	for _, b := range [][]byte{base, static} {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(withSchema(f, base, append(slices.Clone(FeatureNames), "flops"))))
	f.Add([]byte(withSchema(f, static, BBFeatureNames)))
	cfg := Config{ExtendedFeatures: true, StaticFeatures: true, BBFeatures: true}
	a, err := AnalyzeCNN("alexnet", cfg)
	if err != nil {
		f.Fatal(err)
	}
	spec := gpu.MustLookup("t4")
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := LoadEstimator(bytes.NewReader(data))
		if err != nil {
			return
		}
		ipc, err := est.Predict(a, spec)
		if err == nil && !(ipc > 0) {
			t.Fatalf("loaded estimator predicts IPC %v without an error", ipc)
		}
	})
}
