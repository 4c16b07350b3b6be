// Package core implements the paper's two-phase methodology (Fig. 3).
//
// Phase 1 — training dataset creation: for every CNN the Static Analyzer
// extracts the trainable parameters, the Dynamic Code Analysis counts the
// executed PTX instructions, and the profiler measures the IPC on each
// training GPU; each observation d = (y, p, c_1..c_m, t) becomes a
// dataset row (Eq. 1).
//
// Phase 2 — predictive model generation and evaluation: the five
// candidate regressors are trained on the 70 % split and scored with
// MAPE / R² / adjusted R² on the held-out 30 % (Table II); the Decision
// Tree becomes the final Estimator, which predicts the IPC of an unseen
// CNN on an unseen GPU without touching hardware.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/cnn"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/gpusim"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/mlearn/metrics"
	"cnnperf/internal/obs"
	"cnnperf/internal/parallel"
	"cnnperf/internal/profiler"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// Config collects the knobs of the whole pipeline.
type Config struct {
	// PTX configures code generation.
	PTX ptxgen.Options
	// Sim configures the ground-truth GPU simulator.
	Sim gpusim.Config
	// Prof configures the nvprof cost model.
	Prof profiler.Config
	// TrainFrac is the training split fraction (default 0.7).
	TrainFrac float64
	// SplitSeed seeds the train/eval shuffle.
	SplitSeed int64
	// ExtendedFeatures adds the FLOP and MAC predictors to the schema
	// (the paper's future-work feature set).
	ExtendedFeatures bool
	// StaticFeatures adds the ptxanalysis predictors to the schema, so
	// experiments can A/B the base vector against the static-augmented one.
	StaticFeatures bool
	// BBFeatures adds the BBFeatureNames predictors to the schema: the
	// DCA records per-basic-block execution counts
	// (dca.Options.BlockCounts) and the per-block static features are
	// aggregated execution-weighted. Off by default; with it off the
	// pipeline output is byte-identical to the seed (the determinism
	// harness enforces it).
	BBFeatures bool
	// Workers bounds the analysis parallelism: models, regressors and
	// sweep points fan out over a pool of this many goroutines. Zero or
	// negative selects runtime.GOMAXPROCS(0). Results are assembled in
	// deterministic input order regardless of the worker count.
	Workers int
	// Cache memoizes per-kernel dynamic-code-analysis and
	// static-analysis results, content-addressed by canonical kernel
	// text, so models sharing identical kernel shapes pay for each slice
	// exactly once. Nil disables memoization (the seed behaviour);
	// results are bit-identical either way.
	Cache *analysiscache.Cache
}

// DefaultConfig returns the configuration of the reproduced experiments:
// batched inference (batch 16, a typical profiling setup), 5 % peak
// measurement noise, and the frozen 70/30 split seed. Under these
// defaults the Table II reproduction mirrors the paper's findings: the
// Decision Tree wins (5.9 % MAPE vs the paper's 5.73 %), Linear
// Regression is the clear loser with a negative R² (no linear
// dependence), and memory bandwidth dominates the importances.
func DefaultConfig() Config {
	return Config{
		PTX:       ptxgen.Options{Batch: 16},
		Sim:       gpusim.Config{NoisePct: 5},
		TrainFrac: 0.7,
		SplitSeed: 24,
	}
}

// workers resolves the parallelism knob (<= 0 means GOMAXPROCS).
func (c Config) workers() int { return parallel.Workers(c.Workers) }

func (c Config) trainFrac() float64 {
	if c.TrainFrac <= 0 || c.TrainFrac >= 1 {
		return 0.7
	}
	return c.TrainFrac
}

// ModelAnalysis caches the per-CNN analysis shared by every GPU row: the
// static summary and the dynamic code analysis report.
type ModelAnalysis struct {
	// Name is the CNN name.
	Name string
	// Summary is the Static Analyzer output.
	Summary cnn.Summary
	// Report is the Dynamic Code Analysis output.
	Report *dca.Report
	// Static is the static-analysis summary of the generated PTX module.
	Static *ptxanalysis.ModuleAnalysis
	// DCATime is the measured wall-clock of compile+analysis (t_dca).
	DCATime time.Duration
}

// AnalyzeCNN runs the static analyzer and dynamic code analysis for one
// zoo model.
func AnalyzeCNN(name string, cfg Config) (*ModelAnalysis, error) {
	return AnalyzeCNNContext(context.Background(), name, cfg)
}

// AnalyzeModel is AnalyzeCNN over an already-constructed graph (supports
// user-defined CNNs outside the zoo).
func AnalyzeModel(m *cnn.Model, cfg Config) (*ModelAnalysis, error) {
	return AnalyzeModelContext(context.Background(), m, cfg)
}

// AnalyzeModelContext is AnalyzeModel with cancellation between the
// pipeline stages, so an aborted dataset build stops promptly. With
// cfg.Cache set, the per-kernel dca and static-analysis work is
// memoized by kernel content.
func AnalyzeModelContext(ctx context.Context, m *cnn.Model, cfg Config) (*ModelAnalysis, error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "model.analyze", obs.String("model", m.Name))
	defer span.End()

	_, s := obs.Start(ctx, "cnn.analyze")
	summary, err := cnn.Analyze(m)
	s.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, s = obs.Start(ctx, "ptx.codegen")
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err == nil {
		s.SetAttr(obs.Int("kernels", len(prog.Module.Kernels)), obs.Int("launches", len(prog.Launches)))
	}
	s.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return analyzeProgram(ctx, prog, summary, dca.Options{BlockCounts: cfg.BBFeatures}, cfg, start)
}

// analyzeProgram runs the static pass, then the DCA with opts (its
// cache and static gate filled in from cfg and the pass), and assembles
// the analysis of prog, timed from start.
func analyzeProgram(ctx context.Context, prog *ptxgen.Program, summary cnn.Summary, opts dca.Options, cfg Config, start time.Time) (*ModelAnalysis, error) {
	// The static pass runs first: the DCA's gate, loop detection and
	// block-visit collapse read its per-kernel analyses.
	gate, static, err := staticPass(ctx, prog.Module, cfg)
	if err != nil {
		return nil, err
	}
	opts.Cache, opts.Static = cfg.Cache, gate
	rep, err := dca.AnalyzeProgramContext(ctx, prog, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &ModelAnalysis{Name: prog.Model, Summary: summary, Report: rep, Static: static, DCATime: time.Since(start)}, nil
}

// staticPass runs the per-kernel static analysis of a module under the
// "static.analysis" span: the one analysis pass per kernel that the
// static features, the lint and the DCA all read. It runs the full
// level only when cfg's schema holds a block read from it (the static
// or the BB block); otherwise only the gate level the DCA reads, and
// the returned module analysis is nil.
func staticPass(ctx context.Context, m *ptx.Module, cfg Config) (*ptxanalysis.ModuleGate, *ptxanalysis.ModuleAnalysis, error) {
	sctx, s := obs.Start(ctx, "static.analysis")
	defer s.End()
	var gate *ptxanalysis.ModuleGate
	var static *ptxanalysis.ModuleAnalysis
	var err error
	if cfg.schema().fullStatic() {
		// The gate carries the bodies this pass decoded to the DCA, which
		// compiles from them; the kept module analysis holds none.
		static, gate, err = ptxanalysis.AnalyzeModuleGatedCachedContext(sctx, m, cfg.Cache)
	} else {
		gate, err = ptxanalysis.AnalyzeModuleGateCachedContext(sctx, m, cfg.Cache)
	}
	if err != nil && !errors.Is(err, ctx.Err()) {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return gate, static, err
}

// BuildDataset runs Phase 1 over the given CNNs and GPUs: each (CNN, GPU)
// pair becomes one observation whose response is the simulated-profiler
// IPC measurement. Analyses are cached per CNN and returned for reuse.
func BuildDataset(models []string, gpus []string, cfg Config) (*dataset.Dataset, map[string]*ModelAnalysis, error) {
	return BuildDatasetContext(context.Background(), models, gpus, cfg)
}

// BuildDatasetContext is BuildDataset with cancellation: cancelling the
// context aborts the in-flight analyses promptly.
func BuildDatasetContext(ctx context.Context, models []string, gpus []string, cfg Config) (*dataset.Dataset, map[string]*ModelAnalysis, error) {
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("core: need at least one model")
	}
	graphs := make([]*cnn.Model, 0, len(models))
	for _, name := range models {
		m, err := zoo.Build(name)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		graphs = append(graphs, m)
	}
	return BuildDatasetFromModelsContext(ctx, graphs, gpus, cfg)
}

// BuildDatasetFromModels is BuildDataset over already-constructed graphs
// — zoo variants or user-defined CNNs — so the training dataset can grow
// beyond the fixed Table I inventory, as the paper's future work plans.
func BuildDatasetFromModels(models []*cnn.Model, gpus []string, cfg Config) (*dataset.Dataset, map[string]*ModelAnalysis, error) {
	return BuildDatasetFromModelsContext(context.Background(), models, gpus, cfg)
}

// BuildDatasetFromModelsContext fans the per-model analyses out over a
// bounded worker pool of cfg.Workers goroutines. The first failing model
// cancels the pool and its error is returned; on success the rows are
// assembled in input order, so the dataset bytes are identical for every
// worker count.
func BuildDatasetFromModelsContext(ctx context.Context, models []*cnn.Model, gpus []string, cfg Config) (*dataset.Dataset, map[string]*ModelAnalysis, error) {
	if len(models) == 0 || len(gpus) == 0 {
		return nil, nil, fmt.Errorf("core: need at least one model and one GPU")
	}
	schema := cfg.schema()
	// Resolve every GPU and reject duplicate models before spawning any
	// work, so these errors are deterministic and cheap.
	specs := make([]gpu.Spec, len(gpus))
	for i, gid := range gpus {
		spec, err := gpu.Lookup(gid)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		specs[i] = spec
	}
	names := make(map[string]bool, len(models))
	for _, m := range models {
		if names[m.Name] {
			return nil, nil, fmt.Errorf("core: duplicate model %q in dataset", m.Name)
		}
		names[m.Name] = true
	}

	results := make([]*ModelAnalysis, len(models))
	rows := make([][]dataset.Row, len(models))
	pcfg := cfg.Prof
	pcfg.Sim = cfg.Sim
	ctx, span := obs.Start(ctx, "dataset.build",
		obs.Int("models", len(models)), obs.Int("gpus", len(gpus)), obs.Int("workers", cfg.workers()))
	defer span.End()
	err := parallel.ForEach(ctx, cfg.workers(), len(models), func(ctx context.Context, i int) error {
		m := models[i]
		a, err := AnalyzeModelContext(ctx, m, cfg)
		if err != nil {
			return err
		}
		_, profSpan := obs.Start(ctx, "profiler.run", obs.String("model", m.Name))
		mrows := make([]dataset.Row, 0, len(gpus))
		for j, gid := range gpus {
			prof, err := profiler.RunWithReport(a.Report, specs[j], pcfg)
			if err != nil {
				profSpan.End()
				return err
			}
			mrows = append(mrows, dataset.Row{
				Tag: fmt.Sprintf("%s@%s", m.Name, gid),
				X:   schema.vector(a, specs[j]),
				Y:   prof.IPC,
			})
		}
		profSpan.End()
		results[i], rows[i] = a, mrows
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ds := dataset.New(schema.names())
	analyses := make(map[string]*ModelAnalysis, len(models))
	for i, m := range models {
		analyses[m.Name] = results[i]
		ds.Rows = append(ds.Rows, rows[i]...)
	}
	return ds, analyses, nil
}

// DefaultRegressors returns fresh instances of the paper's five
// candidates, in Table II row order.
func DefaultRegressors(seed int64) []mlearn.Regressor {
	return []mlearn.Regressor{
		mlearn.NewLinearRegression(),
		mlearn.NewKNN(3),
		mlearn.NewRandomForest(100, seed),
		mlearn.NewDecisionTree(),
		mlearn.NewXGBoost(seed),
	}
}

// Evaluation is one row of the paper's Table II.
type Evaluation struct {
	// Name is the regressor name.
	Name string
	// MAPE is the mean absolute percentage error on the eval split.
	MAPE float64
	// R2 is the coefficient of determination on the eval split.
	R2 float64
	// AdjR2 is the adjusted R².
	AdjR2 float64
}

// EvaluateRegressors trains each candidate on the training split and
// scores it on the evaluation split (Phase 2, Table II).
func EvaluateRegressors(train, eval *dataset.Dataset, candidates []mlearn.Regressor) ([]Evaluation, error) {
	return EvaluateRegressorsContext(context.Background(), train, eval, candidates, 0)
}

// EvaluateRegressorsContext fans the candidate fits out over a bounded
// worker pool (workers <= 0 selects GOMAXPROCS). Each regressor trains
// and scores independently on the shared read-only splits; the rows come
// back in candidate order, so the result is identical for every worker
// count.
func EvaluateRegressorsContext(ctx context.Context, train, eval *dataset.Dataset, candidates []mlearn.Regressor, workers int) ([]Evaluation, error) {
	if train.Len() == 0 || eval.Len() == 0 {
		return nil, fmt.Errorf("core: empty split")
	}
	trX, trY := train.XY()
	evX, evY := eval.XY()
	out := make([]Evaluation, len(candidates))
	ctx, span := obs.Start(ctx, "mlearn.evaluate",
		obs.Int("candidates", len(candidates)), obs.Int("train_rows", train.Len()), obs.Int("eval_rows", eval.Len()))
	defer span.End()
	err := parallel.ForEach(ctx, workers, len(candidates), func(ctx context.Context, i int) error {
		reg := candidates[i]
		_, fitSpan := obs.Start(ctx, "mlearn.fit", obs.String("regressor", reg.Name()))
		err := reg.Fit(trX, trY)
		fitSpan.End()
		if err != nil {
			return fmt.Errorf("core: fitting %s: %w", reg.Name(), err)
		}
		pred := mlearn.PredictAll(reg, evX)
		mape, err := metrics.MAPE(evY, pred)
		if err != nil {
			return fmt.Errorf("core: scoring %s: %w", reg.Name(), err)
		}
		r2, err := metrics.R2(evY, pred)
		if err != nil {
			return fmt.Errorf("core: scoring %s: %w", reg.Name(), err)
		}
		ev := Evaluation{Name: reg.Name(), MAPE: mape, R2: r2}
		if adj, err := metrics.AdjustedR2(r2, eval.Len(), len(train.FeatureNames)); err == nil {
			ev.AdjR2 = adj
		} else {
			ev.AdjR2 = r2 // too few eval rows to adjust; report raw
		}
		out[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BestByMAPE returns the evaluation row with the lowest MAPE.
func BestByMAPE(evals []Evaluation) (Evaluation, error) {
	if len(evals) == 0 {
		return Evaluation{}, fmt.Errorf("core: no evaluations")
	}
	best := evals[0]
	for _, e := range evals[1:] {
		if e.MAPE < best.MAPE {
			best = e
		}
	}
	return best, nil
}

// Estimator is the trained predictive model: it predicts IPC for a (CNN,
// GPU) pair from static features only — no hardware execution.
type Estimator struct {
	// Regressor is the fitted model.
	Regressor mlearn.Regressor
	// Schema is the feature order the model was trained with.
	Schema []string

	// predictTimeNS holds the last Predict duration in nanoseconds,
	// atomically so concurrent DSE sweeps can share one estimator.
	predictTimeNS atomic.Int64
}

// TrainEstimator fits the given regressor on the full training split.
func TrainEstimator(train *dataset.Dataset, reg mlearn.Regressor) (*Estimator, error) {
	return TrainEstimatorContext(context.Background(), train, reg)
}

// TrainEstimatorContext is TrainEstimator with the fit recorded as an
// "mlearn.train" span when ctx carries a tracer.
func TrainEstimatorContext(ctx context.Context, train *dataset.Dataset, reg mlearn.Regressor) (*Estimator, error) {
	_, span := obs.Start(ctx, "mlearn.train",
		obs.String("regressor", reg.Name()), obs.Int("rows", train.Len()))
	defer span.End()
	X, y := train.XY()
	if err := reg.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Estimator{Regressor: reg, Schema: train.FeatureNames}, nil
}

// Predict estimates the IPC of an analysed CNN on the given GPU.
func (e *Estimator) Predict(a *ModelAnalysis, spec gpu.Spec) (float64, error) {
	return e.PredictContext(context.Background(), a, spec)
}

// PredictContext is Predict with feature assembly and model inference
// recorded as "features" and "predict" spans when ctx carries a tracer.
// Tracing never changes the predicted value.
func (e *Estimator) PredictContext(ctx context.Context, a *ModelAnalysis, spec gpu.Spec) (float64, error) {
	if a == nil {
		return 0, fmt.Errorf("core: nil analysis")
	}
	if err := spec.Validate(); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	schema, err := resolveSchema(e.Schema)
	if err != nil {
		return 0, err
	}
	if a.Static == nil && schema.fullStatic() {
		return 0, fmt.Errorf("core: the estimator reads static-analysis features; analyse %s with Config.StaticFeatures or Config.BBFeatures", a.Name)
	}
	_, fs := obs.Start(ctx, "features", obs.String("model", a.Name), obs.String("gpu", spec.Name))
	x := schema.vector(a, spec)
	fs.End()
	start := time.Now()
	_, ps := obs.Start(ctx, "predict",
		obs.String("model", a.Name), obs.String("gpu", spec.Name), obs.String("regressor", e.Regressor.Name()))
	ipc := e.Regressor.Predict(x)
	ps.End()
	e.predictTimeNS.Store(int64(time.Since(start)))
	if !(ipc > 0) {
		return 0, fmt.Errorf("core: regressor %s produced non-positive IPC %f", e.Regressor.Name(), ipc)
	}
	return ipc, nil
}

// LastPredictTime reports the duration of the most recent Predict call
// (the paper's t_pm).
func (e *Estimator) LastPredictTime() time.Duration {
	return time.Duration(e.predictTimeNS.Load())
}

// FeatureImportances exposes the estimator's importance vector paired
// with feature names, sorted descending — the paper's Table III.
type FeatureImportance struct {
	// Feature is the predictor name.
	Feature string
	// Importance is the normalised impurity-decrease weight.
	Importance float64
}

// Importances returns the sorted feature importances, or an error when
// the underlying regressor cannot attribute them.
func (e *Estimator) Importances() ([]FeatureImportance, error) {
	fi, ok := e.Regressor.(mlearn.FeatureImporter)
	if !ok {
		return nil, fmt.Errorf("core: %s does not expose feature importances", e.Regressor.Name())
	}
	imp := fi.FeatureImportances()
	if len(imp) != len(e.Schema) {
		return nil, fmt.Errorf("core: importance vector length %d != schema %d", len(imp), len(e.Schema))
	}
	out := make([]FeatureImportance, len(imp))
	for i, v := range imp {
		out[i] = FeatureImportance{Feature: e.Schema[i], Importance: v}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Importance > out[j].Importance })
	return out, nil
}

// DSETime models the paper's Section V timing comparison for estimating
// one CNN on n GPUs: T_est = t_dca + n*t_pm versus T_measur = n*t_p.
type DSETime struct {
	// N is the number of candidate GPUs.
	N int
	// TDCASec is the dynamic-code-analysis time (once per CNN).
	TDCASec float64
	// TPMSec is the predictive-model time (per GPU).
	TPMSec float64
	// TPSec is the profiling time of the naive approach (per GPU).
	TPSec float64
}

// Estimated returns T_est = t_dca + n*t_pm.
func (d DSETime) Estimated() float64 { return d.TDCASec + float64(d.N)*d.TPMSec }

// Naive returns T_measur = n*t_p.
func (d DSETime) Naive() float64 { return float64(d.N) * d.TPSec }

// Speedup returns Naive/Estimated.
func (d DSETime) Speedup() float64 {
	est := d.Estimated()
	if est <= 0 {
		return 0
	}
	return d.Naive() / est
}
