package mlearn

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// syntheticXY builds a deterministic regression problem with a known
// nonlinear structure, the same on every run and platform.
func syntheticXY(rows, cols int) ([][]float64, []float64) {
	// A simple LCG keeps the data deterministic without math/rand's
	// cross-version stability caveats.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		X[i] = make([]float64, cols)
		for j := range X[i] {
			X[i][j] = 10 * next()
		}
		y[i] = 3*X[i][0] - 2*X[i][1%cols] + X[i][0]*X[i][2%cols]/5 + next()
	}
	return X, y
}

// fittedRegressors returns one fitted instance of each of the five
// paper regressors, trained on the same deterministic dataset.
func fittedRegressors(t testing.TB) []Regressor {
	t.Helper()
	X, y := syntheticXY(80, 5)
	regs := []Regressor{
		NewLinearRegression(),
		NewKNN(3),
		NewDecisionTree(),
		NewRandomForest(10, 42),
		NewXGBoost(42),
	}
	// Keep the boosted ensemble small: the golden file stays readable
	// and the round-trip still covers every node shape.
	regs[4].(*XGBoost).Rounds = 8
	for _, r := range regs {
		if err := r.Fit(X, y); err != nil {
			t.Fatalf("fitting %s: %v", r.Name(), err)
		}
	}
	return regs
}

// TestMarshalRoundTrip is the core property of the stable serialization:
// for every regressor kind, Unmarshal(Marshal(m)) is deep-equal to m,
// re-marshaling is byte-identical, and predictions are bit-identical.
func TestMarshalRoundTrip(t *testing.T) {
	probes, _ := syntheticXY(20, 5)
	for _, r := range fittedRegressors(t) {
		t.Run(r.Name(), func(t *testing.T) {
			b, err := MarshalRegressor(r)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			// Marshal is deterministic.
			b2, err := MarshalRegressor(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Error("marshaling the same model twice differs")
			}
			got, err := UnmarshalRegressor(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.Name() != r.Name() {
				t.Fatalf("kind changed: %s -> %s", r.Name(), got.Name())
			}
			if !reflect.DeepEqual(got, r) {
				t.Errorf("round-tripped %s is not deep-equal to the original", r.Name())
			}
			// Re-marshal of the reconstruction is byte-identical.
			b3, err := MarshalRegressor(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b3) {
				t.Errorf("re-marshal of round-tripped %s differs", r.Name())
			}
			// Predictions are bit-identical, not merely close.
			for i, x := range probes {
				if w, g := r.Predict(x), got.Predict(x); w != g {
					t.Fatalf("probe %d: original predicts %v, reconstruction %v", i, w, g)
				}
			}
		})
	}
}

func TestMarshalRejectsUnfitted(t *testing.T) {
	for _, r := range []Regressor{
		NewLinearRegression(), NewKNN(3), NewDecisionTree(),
		NewRandomForest(10, 1), NewXGBoost(1),
	} {
		if _, err := MarshalRegressor(r); err == nil {
			t.Errorf("unfitted %s marshaled without error", r.Name())
		}
	}
}

func TestUnmarshalRejections(t *testing.T) {
	valid, err := MarshalRegressor(fittedRegressors(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(valid, &env); err != nil {
		t.Fatal(err)
	}
	mutate := func(field, val string) []byte {
		m := map[string]json.RawMessage{}
		for k, v := range env {
			m[k] = v
		}
		m[field] = json.RawMessage(val)
		b, _ := json.Marshal(m)
		return b
	}
	cases := map[string][]byte{
		"not json":        []byte("@@@"),
		"wrong format":    mutate("format", `"other"`),
		"future version":  mutate("version", `99`),
		"unknown kind":    mutate("kind", `"svm"`),
		"null model":      mutate("model", `null`),
		"mismatched body": mutate("kind", `"xgboost"`), // linreg body under xgboost kind
	}
	for name, b := range cases {
		if _, err := UnmarshalRegressor(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadDecisionTreeErrors feeds corrupt decision-tree bodies, each
// inside an otherwise valid envelope, and checks the tree decoder's
// structural checks reject every one. A well-formed body in the same
// envelope must load, so each rejection is down to the body.
func TestLoadDecisionTreeErrors(t *testing.T) {
	wrap := func(body string) []byte {
		return []byte(`{"format":"cnnperf-mlearn","version":1,"kind":"decision_tree","model":` + body + `}`)
	}
	if _, err := UnmarshalRegressor(wrap(`{"kind":"decision_tree","num_features":2,"root":{"value":1,"samples":1}}`)); err != nil {
		t.Fatalf("well-formed tree body rejected: %v", err)
	}
	cases := []string{
		"",
		"{",
		`{"kind":"random_forest","num_features":2,"root":{"value":1,"samples":1}}`,
		`{"kind":"decision_tree","num_features":0,"root":{"value":1,"samples":1}}`,
		`{"kind":"decision_tree","num_features":2}`,
		`{"kind":"decision_tree","num_features":2,"root":{"value":1,"samples":2,"left":{"value":1,"samples":1}}}`,
		`{"kind":"decision_tree","num_features":2,"root":{"feature":9,"threshold":1,"value":1,"samples":2,"left":{"value":1,"samples":1},"right":{"value":2,"samples":1}}}`,
	}
	for i, body := range cases {
		if _, err := UnmarshalRegressor(wrap(body)); err == nil {
			t.Errorf("case %d should fail to load", i)
		}
	}
}

// goldenEntry pins one regressor kind: its serialised form and a
// recorded prediction, so both the byte format and the semantics of
// loading old artifacts are locked.
type goldenEntry struct {
	Model      json.RawMessage `json:"model"`
	Input      []float64       `json:"input"`
	Prediction float64         `json:"prediction"`
}

// TestGoldenRegressors checks today's code still reads the checked-in
// serialised models and predicts exactly what was recorded when they
// were written. Regenerate with -update only on a deliberate format
// bump (and bump envelopeVersion).
func TestGoldenRegressors(t *testing.T) {
	golden := filepath.Join("testdata", "regressors_golden.json")
	probe := []float64{1.5, 2.5, 3.5, 4.5, 5.5}
	if *updateGolden {
		entries := map[string]goldenEntry{}
		for _, r := range fittedRegressors(t) {
			b, err := MarshalRegressor(r)
			if err != nil {
				t.Fatal(err)
			}
			entries[r.Name()] = goldenEntry{
				Model:      b,
				Input:      probe,
				Prediction: r.Predict(probe),
			}
		}
		out, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var entries map[string]goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("golden file has %d kinds, want 5", len(entries))
	}
	for kind, e := range entries {
		r, err := UnmarshalRegressor(e.Model)
		if err != nil {
			t.Errorf("%s: today's code cannot read the golden model: %v", kind, err)
			continue
		}
		if r.Name() != kind {
			t.Errorf("%s: loaded as %s", kind, r.Name())
		}
		if got := r.Predict(e.Input); got != e.Prediction {
			t.Errorf("%s: golden model predicts %v, recorded %v", kind, got, e.Prediction)
		}
	}
}

// FuzzMlearnUnmarshal throws corrupted, truncated and version-skewed
// payloads at UnmarshalRegressor: it must never panic, and anything it
// accepts must re-marshal and round-trip to a deep-equal model.
func FuzzMlearnUnmarshal(f *testing.F) {
	for _, r := range fittedRegressors(f) {
		b, err := MarshalRegressor(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"cnnperf-mlearn","version":1,"kind":"knn","model":{"k":1,"x":[[1]],"y":[0],"scaler":{"mean":[0],"std":[0]}}}`))
	f.Add([]byte(`{"format":"cnnperf-mlearn","version":2,"kind":"decision_tree","model":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRegressor(data)
		if err != nil {
			return
		}
		b, err := MarshalRegressor(r)
		if err != nil {
			t.Fatalf("accepted model does not re-marshal: %v", err)
		}
		r2, err := UnmarshalRegressor(b)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatal("accepted model does not round-trip deep-equal")
		}
	})
}
