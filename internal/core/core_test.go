package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"cnnperf/internal/cnn"
	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/zoo"
)

// fastConfig keeps unit tests quick: batch 1, default sim.
func fastConfig() Config { return Config{} }

func TestAnalyzeCNN(t *testing.T) {
	a, err := AnalyzeCNN("mobilenetv2", fastConfig())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.Name != "mobilenetv2" {
		t.Errorf("name = %q", a.Name)
	}
	if a.Report.Executed <= 0 {
		t.Error("no executed instructions")
	}
	want := zoo.MustBuild("mobilenetv2").TrainableParams()
	if a.Summary.TrainableParams != want {
		t.Errorf("params %d != zoo %d", a.Summary.TrainableParams, want)
	}
	if a.DCATime <= 0 {
		t.Error("DCA time not measured")
	}
	if _, err := AnalyzeCNN("nonexistent", fastConfig()); err == nil {
		t.Error("unknown model should error")
	}
}

func TestAnalyzeModelCustomGraph(t *testing.T) {
	b, x := cnn.NewBuilder("custom", cnn.Shape{H: 8, W: 8, C: 3})
	x = b.Add(cnn.Conv(4, 3, 1, cnn.Same), x)
	x = b.Add(cnn.GlobalAvgPool(), x)
	x = b.Add(cnn.FC(2), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeModel(m, fastConfig())
	if err != nil {
		t.Fatalf("analyze custom: %v", err)
	}
	spec := gpu.MustLookup("t4")
	f := Config{}.schema().vector(a, spec)
	if len(f) != len(FeatureNames) {
		t.Fatalf("features = %d, schema = %d", len(f), len(FeatureNames))
	}
	if f[0] != float64(a.Report.Executed) || f[1] != float64(a.Summary.TrainableParams) {
		t.Error("CNN features must lead the vector")
	}
	if f[2] != spec.Features()[0] {
		t.Error("GPU features must follow")
	}
}

func TestFeatureSchema(t *testing.T) {
	if FeatureNames[0] != "executed_instructions" || FeatureNames[1] != "trainable_params" {
		t.Errorf("schema head wrong: %v", FeatureNames[:2])
	}
	if FeatureNames[2] != "mem_bandwidth_gbs" {
		t.Errorf("first GPU feature should be bandwidth, got %s", FeatureNames[2])
	}
	if len(FeatureNames) != 2+len(gpu.FeatureNames) {
		t.Errorf("schema length %d", len(FeatureNames))
	}
}

func TestBuildDatasetSmall(t *testing.T) {
	models := []string{"alexnet", "mobilenet"}
	gpus := []string{"gtx1080ti", "v100s"}
	ds, analyses, err := BuildDataset(models, gpus, fastConfig())
	if err != nil {
		t.Fatalf("build dataset: %v", err)
	}
	if ds.Len() != 4 {
		t.Fatalf("rows = %d, want 4", ds.Len())
	}
	if len(analyses) != 2 {
		t.Errorf("analyses = %d", len(analyses))
	}
	tags := ds.Tags()
	if tags[0] != "alexnet@gtx1080ti" || tags[3] != "mobilenet@v100s" {
		t.Errorf("tags = %v", tags)
	}
	for _, r := range ds.Rows {
		if r.Y <= 0 {
			t.Errorf("%s: non-positive IPC %f", r.Tag, r.Y)
		}
		if len(r.X) != len(FeatureNames) {
			t.Errorf("%s: feature width %d", r.Tag, len(r.X))
		}
	}
	// Same model on two GPUs: identical CNN features, different GPU
	// features, different IPC.
	if ds.Rows[0].X[0] != ds.Rows[1].X[0] {
		t.Error("executed instructions must not depend on the GPU")
	}
	if ds.Rows[0].X[2] == ds.Rows[1].X[2] {
		t.Error("GPU features must differ between devices")
	}
	if ds.Rows[0].Y == ds.Rows[1].Y {
		t.Error("IPC must differ between devices")
	}
}

func TestBuildDatasetErrors(t *testing.T) {
	if _, _, err := BuildDataset(nil, []string{"t4"}, fastConfig()); err == nil {
		t.Error("no models should error")
	}
	if _, _, err := BuildDataset([]string{"alexnet"}, nil, fastConfig()); err == nil {
		t.Error("no GPUs should error")
	}
	if _, _, err := BuildDataset([]string{"nope"}, []string{"t4"}, fastConfig()); err == nil {
		t.Error("unknown model should error")
	}
	if _, _, err := BuildDataset([]string{"alexnet"}, []string{"voodoo2"}, fastConfig()); err == nil {
		t.Error("unknown GPU should error")
	}
}

// syntheticSplit builds an easy dataset for regressor plumbing tests.
func syntheticSplit(t *testing.T) (train, eval *dataset.Dataset) {
	t.Helper()
	ds := dataset.New(FeatureNames)
	for i := 0; i < 40; i++ {
		x := make([]float64, len(FeatureNames))
		for j := range x {
			x[j] = float64((i*7+j*13)%23) + 1
		}
		y := 100 + 3*x[0] + x[1]*x[1]/10
		if err := ds.Append("synth", x, y); err != nil {
			t.Fatal(err)
		}
	}
	train, eval, err := ds.Split(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	return train, eval
}

func TestEvaluateRegressorsAndBest(t *testing.T) {
	train, eval := syntheticSplit(t)
	evals, err := EvaluateRegressors(train, eval, DefaultRegressors(1))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if len(evals) != 5 {
		t.Fatalf("evals = %d", len(evals))
	}
	names := map[string]bool{}
	for _, e := range evals {
		names[e.Name] = true
		if e.MAPE < 0 || math.IsNaN(e.MAPE) {
			t.Errorf("%s: MAPE %f", e.Name, e.MAPE)
		}
		if e.AdjR2 > e.R2+1e-12 {
			t.Errorf("%s: adjusted R2 %f above R2 %f", e.Name, e.AdjR2, e.R2)
		}
	}
	for _, want := range []string{"linear_regression", "knn", "random_forest", "decision_tree", "xgboost"} {
		if !names[want] {
			t.Errorf("missing regressor %s", want)
		}
	}
	best, err := BestByMAPE(evals)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if e.MAPE < best.MAPE {
			t.Error("BestByMAPE did not return the minimum")
		}
	}
	if _, err := BestByMAPE(nil); err == nil {
		t.Error("empty evals should error")
	}
}

func TestEvaluateRegressorsEmptySplit(t *testing.T) {
	empty := dataset.New(FeatureNames)
	if _, err := EvaluateRegressors(empty, empty, DefaultRegressors(1)); err == nil {
		t.Error("empty split should error")
	}
}

func TestTrainEstimatorPredictAndTiming(t *testing.T) {
	models := []string{"alexnet", "mobilenet", "mobilenetv2", "vgg16"}
	ds, analyses, err := BuildDataset(models, gpu.TrainingGPUs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	ipc, err := est.Predict(analyses["vgg16"], gpu.MustLookup("gtx1080ti"))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if ipc <= 0 {
		t.Errorf("IPC = %f", ipc)
	}
	if est.LastPredictTime() <= 0 {
		t.Error("predict time not measured")
	}
	// Cross-platform: an unseen GPU must still produce a prediction.
	if _, err := est.Predict(analyses["vgg16"], gpu.MustLookup("t4")); err != nil {
		t.Errorf("cross-platform predict: %v", err)
	}
	if _, err := est.Predict(nil, gpu.MustLookup("t4")); err == nil {
		t.Error("nil analysis should error")
	}
	if _, err := est.Predict(analyses["vgg16"], gpu.Spec{}); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestImportances(t *testing.T) {
	train, _ := syntheticSplit(t)
	est, err := TrainEstimator(train, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	imps, err := est.Importances()
	if err != nil {
		t.Fatalf("importances: %v", err)
	}
	if len(imps) != len(FeatureNames) {
		t.Fatalf("importances = %d", len(imps))
	}
	sum := 0.0
	for i, fi := range imps {
		sum += fi.Importance
		if i > 0 && fi.Importance > imps[i-1].Importance {
			t.Error("importances not sorted descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum %f", sum)
	}
	// Linear regression cannot attribute importances.
	lr, err := TrainEstimator(train, mlearn.NewLinearRegression())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Importances(); err == nil {
		t.Error("linear regression importances should error")
	}
}

func TestDSETime(t *testing.T) {
	d := DSETime{N: 7, TDCASec: 24.8, TPMSec: 11, TPSec: 663}
	if got := d.Estimated(); math.Abs(got-(24.8+7*11)) > 1e-9 {
		t.Errorf("estimated = %f", got)
	}
	if got := d.Naive(); math.Abs(got-7*663) > 1e-9 {
		t.Errorf("naive = %f", got)
	}
	if s := d.Speedup(); math.Abs(s-7*663/(24.8+77)) > 1e-9 {
		t.Errorf("speedup = %f", s)
	}
	if (DSETime{}).Speedup() != 0 {
		t.Error("degenerate speedup should be 0")
	}
}

// TestPaperShape is the headline integration test: with the default
// configuration over all Table I CNNs and both training GPUs, the
// reproduction must show the paper's qualitative findings (Table II /
// Table III shape).
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline shape test skipped in -short mode")
	}
	cfg := DefaultConfig()
	ds, _, err := BuildDataset(zoo.TableIOrder, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 62 {
		t.Fatalf("dataset rows = %d, want 62 (31 CNNs x 2 GPUs)", ds.Len())
	}
	train, eval, err := ds.Split(cfg.trainFrac(), cfg.SplitSeed)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := EvaluateRegressors(train, eval, DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Evaluation{}
	for _, e := range evals {
		byName[e.Name] = e
	}
	dt := byName["decision_tree"]
	lr := byName["linear_regression"]
	// Paper Table II shape: the Decision Tree lands in the single-digit
	// band (5.73 % in the paper) and beats Linear Regression, which
	// shows no linear dependence (R2 about 0).
	if dt.MAPE > 10 {
		t.Errorf("decision tree MAPE %.2f%% outside the paper's band", dt.MAPE)
	}
	if lr.MAPE <= dt.MAPE {
		t.Errorf("linear regression (%.2f%%) must lose to the decision tree (%.2f%%)", lr.MAPE, dt.MAPE)
	}
	if lr.R2 > 0.3 {
		t.Errorf("linear regression R2 %.3f should be near or below zero", lr.R2)
	}
	best, _ := BestByMAPE(evals)
	if best.Name == "linear_regression" {
		t.Error("linear regression must not win")
	}
	// Table III shape: memory bandwidth dominates the decision tree's
	// importances.
	est, err := TrainEstimator(train, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	imps, err := est.Importances()
	if err != nil {
		t.Fatal(err)
	}
	if imps[0].Feature != "mem_bandwidth_gbs" {
		t.Errorf("top importance = %s, want mem_bandwidth_gbs", imps[0].Feature)
	}
	if imps[0].Importance < 0.5 {
		t.Errorf("bandwidth importance %.3f should dominate", imps[0].Importance)
	}
	// The two CNN predictors must appear among the top four, as in
	// Table III's three-predictor model.
	topFour := strings.Join([]string{imps[0].Feature, imps[1].Feature, imps[2].Feature, imps[3].Feature}, ",")
	if !strings.Contains(topFour, "trainable_params") && !strings.Contains(topFour, "executed_instructions") {
		t.Errorf("CNN predictors missing from the top importances: %s", topFour)
	}
}

func TestExtendedFeatures(t *testing.T) {
	cfg := fastConfig()
	cfg.ExtendedFeatures = true
	models := []string{"alexnet", "mobilenet", "mobilenetv2"}
	ds, analyses, err := BuildDataset(models, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.FeatureNames) != len(ExtendedFeatureNames) {
		t.Fatalf("schema width %d, want %d", len(ds.FeatureNames), len(ExtendedFeatureNames))
	}
	last := len(ds.FeatureNames)
	if ds.FeatureNames[last-2] != "flops" || ds.FeatureNames[last-1] != "macs" {
		t.Errorf("schema tail = %v", ds.FeatureNames[last-2:])
	}
	a := analyses["alexnet"]
	row := ds.Rows[0]
	if row.X[last-2] != float64(a.Summary.FLOPs) || row.X[last-1] != float64(a.Summary.MACs) {
		t.Error("extended features not populated")
	}
	// An estimator trained on the extended schema predicts with it.
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := est.Predict(a, gpu.MustLookup("t4"))
	if err != nil {
		t.Fatalf("extended predict: %v", err)
	}
	if ipc <= 0 {
		t.Errorf("IPC = %f", ipc)
	}
	// FLOPs must be at least twice the MACs (each MAC is 2 FLOPs).
	if a.Summary.FLOPs < 2*a.Summary.MACs {
		t.Errorf("FLOPs %d < 2*MACs %d", a.Summary.FLOPs, a.Summary.MACs)
	}
}

func TestStaticFeatures(t *testing.T) {
	cfg := fastConfig()
	cfg.StaticFeatures = true
	models := []string{"alexnet", "mobilenet", "mobilenetv2"}
	ds, analyses, err := BuildDataset(models, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.FeatureNames) != len(StaticFeatureNames) {
		t.Fatalf("schema width %d, want %d", len(ds.FeatureNames), len(StaticFeatureNames))
	}
	last := len(ds.FeatureNames)
	if ds.FeatureNames[last-1] != "static_coalesced_fraction" {
		t.Errorf("schema tail = %v", ds.FeatureNames[last-1])
	}
	a := analyses["alexnet"]
	if a.Static == nil {
		t.Fatal("static analysis missing from ModelAnalysis")
	}
	if a.Static.MaxRegPressure <= 0 {
		t.Error("register pressure not computed")
	}
	row := ds.Rows[0]
	if row.X[last-len(a.Static.Features())] != float64(a.Static.MaxRegPressure) {
		t.Error("static features not populated in dataset rows")
	}
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := est.Predict(a, gpu.MustLookup("t4"))
	if err != nil {
		t.Fatalf("static predict: %v", err)
	}
	if ipc <= 0 {
		t.Errorf("IPC = %f", ipc)
	}
	// Both flags together select the full schema.
	cfg.ExtendedFeatures = true
	ds2, _, err := BuildDataset([]string{"alexnet"}, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ds2.FeatureNames), len(ExtendedFeatureNames)+len(ptxanalysis.FeatureNames); got != want {
		t.Errorf("full schema width %d, want %d", got, want)
	}
}

func TestBBFeatures(t *testing.T) {
	cfg := fastConfig()
	cfg.BBFeatures = true
	models := []string{"alexnet", "mobilenet", "mobilenetv2"}
	ds, analyses, err := BuildDataset(models, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(FeatureNames) + len(BBFeatureNames)
	if len(ds.FeatureNames) != want {
		t.Fatalf("schema width %d, want %d", len(ds.FeatureNames), want)
	}
	if tail := ds.FeatureNames[len(ds.FeatureNames)-1]; tail != "bb_mean_live_regs" {
		t.Errorf("schema tail = %q", tail)
	}
	a := analyses["alexnet"]
	for i := range a.Report.Kernels {
		if a.Report.Kernels[i].BlockVisits == nil {
			t.Errorf("launch %d (%s): BlockVisits not recorded", i, a.Report.Kernels[i].Kernel)
		}
	}
	// The BB block sits at the vector tail; bb_count and the live-
	// register mean are structurally positive for any real kernel.
	row := ds.Rows[0]
	bb := row.X[len(row.X)-len(BBFeatureNames):]
	if bb[0] <= 0 {
		t.Errorf("bb_count = %f, want > 0", bb[0])
	}
	if bb[6] <= 0 {
		t.Errorf("bb_mean_live_regs = %f, want > 0", bb[6])
	}
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := est.Predict(a, gpu.MustLookup("t4"))
	if err != nil {
		t.Fatalf("bb predict: %v", err)
	}
	if ipc <= 0 {
		t.Errorf("IPC = %f", ipc)
	}
	// Composes with the static block: static schema + BB tail.
	cfg.StaticFeatures = true
	ds2, _, err := BuildDataset([]string{"alexnet"}, gpu.TrainingGPUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ds2.FeatureNames), len(StaticFeatureNames)+len(BBFeatureNames); got != want {
		t.Errorf("static+bb schema width %d, want %d", got, want)
	}
}

func TestEstimatorSaveLoad(t *testing.T) {
	models := []string{"alexnet", "mobilenet", "mobilenetv2", "squeezenet"}
	ds, analyses, err := BuildDataset(models, gpu.TrainingGPUs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainEstimator(ds, mlearn.NewDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	spec := gpu.MustLookup("t4")
	for _, a := range analyses {
		want, err := est.Predict(a, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Predict(a, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: loaded estimator predicts %f, original %f", a.Name, got, want)
		}
	}
	// Since the v2 envelope every paper regressor persists, not only
	// the tree: a linear estimator round-trips with identical output.
	lr, err := TrainEstimator(ds, mlearn.NewLinearRegression())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := lr.Save(&buf); err != nil {
		t.Fatalf("saving a linear estimator: %v", err)
	}
	lrBack, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatalf("loading a linear estimator: %v", err)
	}
	for _, a := range analyses {
		want, err := lr.Predict(a, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lrBack.Predict(a, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: loaded linear estimator predicts %f, original %f", a.Name, got, want)
		}
	}
}

func TestLoadEstimatorErrors(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"format":"other","schema":[],"model":{}}`,
		`{"format":"cnnperf-estimator","schema":["a","b"],"model":{}}`,
	}
	for i, src := range cases {
		if _, err := LoadEstimator(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// A schema the feature table cannot resolve is refused on decode,
	// whatever its width, with an error naming the offending feature.
	saved := savedEstimator(t, Config{})
	if _, err := LoadEstimator(bytes.NewReader(saved)); err != nil {
		t.Fatalf("untouched envelope: %v", err)
	}
	renamed := append([]string{"bogus"}, FeatureNames[1:]...)
	for _, c := range []struct {
		schema []string
		bad    string
	}{
		{[]string{"nonsense"}, "nonsense"},
		{renamed, "bogus"},
		{append(append([]string(nil), FeatureNames...), "flops"), "flops"},
	} {
		_, err := LoadEstimator(strings.NewReader(withSchema(t, saved, c.schema)))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.bad)) {
			t.Errorf("schema %v: err = %v, want one naming %q", c.schema, err, c.bad)
		}
	}
	// The retired version-1 envelope (a bare decision tree) is refused
	// by version, not misread as a version-2 body.
	v1 := `{"format":"cnnperf-estimator","version":1,"schema":["a","b"],` +
		`"model":{"kind":"decision_tree","num_features":2,"root":{"value":1,"samples":1}}}`
	_, err := LoadEstimator(strings.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported estimator version 1") {
		t.Errorf("v1 envelope: err = %v, want unsupported estimator version 1", err)
	}
}
