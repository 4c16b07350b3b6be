package mlearn

import (
	"math"
	"testing"
)

func TestCrossValidateBasics(t *testing.T) {
	X, y := toyData(60)
	// Shift responses away from zero so MAPE is well-defined.
	for i := range y {
		y[i] += 100
	}
	res, err := CrossValidate(func() Regressor { return NewDecisionTree() }, X, y, 5, 42)
	if err != nil {
		t.Fatalf("cv: %v", err)
	}
	if res.Folds != 5 || len(res.MAPEs) != 5 {
		t.Fatalf("folds = %+v", res)
	}
	for i, m := range res.MAPEs {
		if m < 0 || math.IsNaN(m) {
			t.Errorf("fold %d MAPE %f", i, m)
		}
	}
	if res.MeanMAPE <= 0 || res.StdMAPE < 0 {
		t.Errorf("summary = %+v", res)
	}
	// Mean must lie within the fold range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range res.MAPEs {
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if res.MeanMAPE < lo || res.MeanMAPE > hi {
		t.Error("mean outside fold range")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	X, y := toyData(40)
	for i := range y {
		y[i] += 50
	}
	f := func() Regressor { return NewKNN(3) }
	a, err := CrossValidate(f, X, y, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(f, X, y, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MAPEs {
		if a.MAPEs[i] != b.MAPEs[i] {
			t.Fatal("same seed must reproduce folds")
		}
	}
	c, err := CrossValidate(f, X, y, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.MAPEs[0] == c.MAPEs[0] && a.MAPEs[1] == c.MAPEs[1] && a.MAPEs[2] == c.MAPEs[2] {
		t.Error("different seeds should change the folds")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	X, y := toyData(10)
	f := func() Regressor { return NewDecisionTree() }
	if _, err := CrossValidate(f, X, y, 1, 1); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := CrossValidate(f, X, y, 11, 1); err == nil {
		t.Error("k>n should error")
	}
	if _, err := CrossValidate(f, nil, nil, 2, 1); err == nil {
		t.Error("empty data should error")
	}
}

func TestPermutationImportance(t *testing.T) {
	// y depends strongly on feature 1, weakly on feature 0, never on 2.
	rng := newXorshift(21)
	X := make([][]float64, 80)
	y := make([]float64, 80)
	for i := range X {
		X[i] = []float64{rng.float64v(), rng.float64v() * 10, rng.float64v()}
		y[i] = 100 + X[i][0] + 20*X[i][1]
	}
	tree := NewDecisionTree()
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(tree, X, y, 3, 7)
	if err != nil {
		t.Fatalf("permutation importance: %v", err)
	}
	if len(imp) != 3 {
		t.Fatalf("imp = %v", imp)
	}
	if imp[1] < imp[0] || imp[1] < imp[2] {
		t.Errorf("feature 1 should dominate: %v", imp)
	}
	if imp[2] > 0.05 {
		t.Errorf("unused feature importance %f should be ~0", imp[2])
	}
	sum := imp[0] + imp[1] + imp[2]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importances sum %f", sum)
	}
	// Deterministic.
	imp2, err := PermutationImportance(tree, X, y, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imp {
		if imp[i] != imp2[i] {
			t.Fatal("permutation importance not deterministic")
		}
	}
	// Agreement with impurity importance on the dominant feature.
	gini := tree.FeatureImportances()
	maxG, maxP := 0, 0
	for i := range gini {
		if gini[i] > gini[maxG] {
			maxG = i
		}
		if imp[i] > imp[maxP] {
			maxP = i
		}
	}
	if maxG != maxP {
		t.Errorf("impurity (%d) and permutation (%d) disagree on the top feature", maxG, maxP)
	}
	// Errors.
	if _, err := PermutationImportance(tree, nil, nil, 3, 1); err == nil {
		t.Error("empty data should error")
	}
}
