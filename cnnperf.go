// Package cnnperf predicts the performance (IPC) of convolutional neural
// networks on GPGPUs without executing them on hardware, reproducing
// "Fast and Accurate: Machine Learning Techniques for Performance
// Estimation of CNNs for GPGPUs" (Metz, Goli, Drechsler, 2023).
//
// The pipeline has two phases (paper Fig. 3):
//
//  1. Dataset creation — the Static Analyzer extracts trainable
//     parameters from the network topology, the Dynamic Code Analysis
//     slices and abstractly executes the generated PTX to count executed
//     instructions, and the profiler measures IPC on the training GPUs.
//  2. Model generation — five regressors (Linear Regression, K-NN,
//     Random Forest, Decision Tree, XGBoost) are trained on a 70/30
//     split; the Decision Tree becomes the final estimator.
//
// Quick start:
//
//	cfg := cnnperf.DefaultConfig()
//	ds, analyses, _ := cnnperf.BuildDataset(cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
//	train, _, _ := ds.Split(0.7, cfg.SplitSeed)
//	est, _ := cnnperf.TrainEstimator(train, cnnperf.NewDecisionTree())
//	ipc, _ := est.Predict(analyses["vgg16"], cnnperf.MustGPU("gtx1080ti"))
//
// Everything — the CNN graph IR and model zoo, the PTX ISA with parser
// and code generator, the slicing interpreter, the GPU timing simulator
// standing in for real hardware, and the ML library — is implemented in
// this module with the standard library only.
package cnnperf

import (
	"context"
	"io"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/cnn"
	"cnnperf/internal/core"
	"cnnperf/internal/dca"
	"cnnperf/internal/dse"
	"cnnperf/internal/gpu"
	"cnnperf/internal/gpusim"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/profiler"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// Re-exported pipeline types. See the internal/core documentation for
// details on each.
type (
	// Config collects the pipeline knobs; start from DefaultConfig.
	Config = core.Config
	// ModelAnalysis is the cached static + dynamic analysis of one CNN.
	ModelAnalysis = core.ModelAnalysis
	// Estimator is the trained predictive model.
	Estimator = core.Estimator
	// Evaluation is one Table II row (regressor, MAPE, R², adj. R²).
	Evaluation = core.Evaluation
	// FeatureImportance pairs a predictor with its importance weight.
	FeatureImportance = core.FeatureImportance
	// DSETime models the Section V timing comparison.
	DSETime = core.DSETime

	// Dataset is the (CNN, GPU) observation table.
	Dataset = dataset.Dataset
	// Regressor is a trainable scalar regression model.
	Regressor = mlearn.Regressor

	// GPUSpec is a GPGPU's architectural datasheet.
	GPUSpec = gpu.Spec
	// Profile is an nvprof-style profiling result.
	Profile = profiler.Profile

	// Model is a CNN computation graph.
	Model = cnn.Model
	// Shape is a feature-map shape.
	Shape = cnn.Shape
	// GraphBuilder constructs custom CNN graphs.
	GraphBuilder = cnn.Builder
)

// FeatureNames is the dataset schema: executed instructions and
// trainable parameters followed by the GPU architectural features.
var FeatureNames = core.FeatureNames

// DefaultConfig returns the configuration used by the reproduced
// experiments (batch-16 profiling, 5 % measurement noise, frozen split).
func DefaultConfig() Config { return core.DefaultConfig() }

// AnalyzeCNN runs the static analyzer and the dynamic code analysis for
// one zoo model (phase 1 per-CNN work).
func AnalyzeCNN(name string, cfg Config) (*ModelAnalysis, error) {
	return core.AnalyzeCNN(name, cfg)
}

// AnalyzeModel is AnalyzeCNN over a custom graph built with NewModel.
func AnalyzeModel(m *Model, cfg Config) (*ModelAnalysis, error) {
	return core.AnalyzeModel(m, cfg)
}

// BuildDataset runs phase 1 over the given CNNs and GPUs and returns the
// observation table plus the per-CNN analyses for reuse. Set Config.Workers
// to fan the per-model analyses over a worker pool and Config.Cache to
// memoize per-kernel analysis work; the rows are identical either way.
func BuildDataset(models, gpus []string, cfg Config) (*Dataset, map[string]*ModelAnalysis, error) {
	return core.BuildDataset(models, gpus, cfg)
}

// BuildDatasetContext is BuildDataset with cancellation: ctx aborts the
// worker pool promptly and the first error encountered is returned.
func BuildDatasetContext(ctx context.Context, models, gpus []string, cfg Config) (*Dataset, map[string]*ModelAnalysis, error) {
	return core.BuildDatasetContext(ctx, models, gpus, cfg)
}

// AnalysisCache is the concurrency-safe content-addressed memo store of
// per-kernel analysis results; plug one into Config.Cache to share work
// across models and repeated builds.
type AnalysisCache = analysiscache.Cache

// AnalysisCacheStats is a snapshot of the cache counters.
type AnalysisCacheStats = analysiscache.Stats

// NewAnalysisCache creates an analysis cache bounded to capacity entries
// (<= 0 means unbounded).
func NewAnalysisCache(capacity int) *AnalysisCache { return analysiscache.New(capacity) }

// EvaluateRegressors trains and scores candidates on a split (Table II).
func EvaluateRegressors(train, eval *Dataset, candidates []Regressor) ([]Evaluation, error) {
	return core.EvaluateRegressors(train, eval, candidates)
}

// DefaultRegressors returns the paper's five candidates.
func DefaultRegressors(seed int64) []Regressor { return core.DefaultRegressors(seed) }

// BestByMAPE picks the winning evaluation row.
func BestByMAPE(evals []Evaluation) (Evaluation, error) { return core.BestByMAPE(evals) }

// TrainEstimator fits a regressor on the training split.
func TrainEstimator(train *Dataset, reg Regressor) (*Estimator, error) {
	return core.TrainEstimator(train, reg)
}

// Prediction is one per-GPU IPC estimate of a single-model prediction.
type Prediction = core.Prediction

// PTXOptions configures PredictPTX / core.AnalyzePTXContext for raw
// PTX payloads (launch geometry and the trainable-params predictor).
type PTXOptions = core.PTXOptions

// LeaveOneOutEstimator trains the paper's Decision Tree on every
// Table I model except exclude, on the two training GPUs — the exact
// training path of `cnnperf predict` and the cnnperfd daemon.
func LeaveOneOutEstimator(ctx context.Context, exclude string, cfg Config) (*Estimator, error) {
	return core.LeaveOneOutEstimatorContext(ctx, exclude, cfg)
}

// PredictCNN estimates the IPC of one zoo model on each named GPU
// without executing it: leave-one-out training, analysis and per-GPU
// prediction in one call.
func PredictCNN(ctx context.Context, model string, gpus []string, cfg Config) ([]Prediction, *ModelAnalysis, error) {
	return core.PredictCNNContext(ctx, model, gpus, cfg)
}

// AnalyzePTX parses raw PTX assembly and runs the dynamic and static
// analyses over it, returning a ModelAnalysis usable with
// Estimator.Predict — prediction for kernels that never came from the
// CNN zoo.
func AnalyzePTX(ctx context.Context, src string, opt PTXOptions, cfg Config) (*ModelAnalysis, error) {
	return core.AnalyzePTXContext(ctx, src, opt, cfg)
}

// NewDecisionTree returns the paper's winning regressor.
func NewDecisionTree() Regressor { return mlearn.NewDecisionTree() }

// NewLinearRegression returns the linear baseline.
func NewLinearRegression() Regressor { return mlearn.NewLinearRegression() }

// NewKNN returns a k-nearest-neighbour regressor.
func NewKNN(k int) Regressor { return mlearn.NewKNN(k) }

// NewRandomForest returns a bagged-tree ensemble.
func NewRandomForest(trees int, seed int64) Regressor { return mlearn.NewRandomForest(trees, seed) }

// NewXGBoost returns a gradient-boosted tree ensemble.
func NewXGBoost(seed int64) Regressor { return mlearn.NewXGBoost(seed) }

// TableIModels lists the 31 CNNs of the paper's Table I in row order.
func TableIModels() []string { return append([]string(nil), zoo.TableIOrder...) }

// ModelNames lists every CNN in the zoo (Table I plus extras), sorted.
func ModelNames() []string { return zoo.Names() }

// BuildCNN constructs a zoo model by name.
func BuildCNN(name string) (*Model, error) { return zoo.Build(name) }

// NewModel starts a custom CNN graph; see the cnn ops (re-exported in
// ops.go) for the available layers.
func NewModel(name string, input Shape) (*GraphBuilder, *cnn.Node) {
	return cnn.NewBuilder(name, input)
}

// TrainingGPUs returns the two devices the paper trains on.
func TrainingGPUs() []string { return append([]string(nil), gpu.TrainingGPUs...) }

// DSEGPUs returns the seven devices of the paper's Table IV experiment.
func DSEGPUs() []string { return append([]string(nil), gpu.TableIVGPUs...) }

// GPUNames lists every device in the catalogue.
func GPUNames() []string { return gpu.IDs() }

// GPU looks up a device spec by id (e.g. "gtx1080ti").
func GPU(id string) (GPUSpec, error) { return gpu.Lookup(id) }

// MustGPU is GPU but panics on unknown ids.
func MustGPU(id string) GPUSpec { return gpu.MustLookup(id) }

// ProfileCNN profiles one zoo model on one GPU with the nvprof-style
// harness over the timing simulator (the paper's "naive approach").
func ProfileCNN(name, gpuID string, cfg Config) (*Profile, error) {
	m, err := zoo.Build(name)
	if err != nil {
		return nil, err
	}
	return ProfileModel(m, gpuID, cfg)
}

// ProfileModel profiles a custom model on one GPU.
func ProfileModel(m *Model, gpuID string, cfg Config) (*Profile, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return nil, err
	}
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err != nil {
		return nil, err
	}
	pcfg := cfg.Prof
	pcfg.Sim = cfg.Sim
	return profiler.Run(prog, spec, pcfg)
}

// GeneratePTX compiles a zoo model and renders its PTX assembly, as the
// nvcc step of the paper's flow would.
func GeneratePTX(name string, cfg Config) (string, error) {
	m, err := zoo.Build(name)
	if err != nil {
		return "", err
	}
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err != nil {
		return "", err
	}
	return ptx.Print(prog.Module), nil
}

// ExecutedInstructions returns the dynamic code analysis total for a zoo
// model: the paper's p predictor.
func ExecutedInstructions(name string, cfg Config) (int64, error) {
	a, err := core.AnalyzeCNN(name, cfg)
	if err != nil {
		return 0, err
	}
	return a.Report.Executed, nil
}

// SimulateCNN runs a zoo model through the GPU timing simulator and
// returns the ground-truth execution result.
func SimulateCNN(name, gpuID string, cfg Config) (*gpusim.Result, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeCNN(name, cfg)
	if err != nil {
		return nil, err
	}
	return gpusim.Simulate(a.Report, spec, cfg.Sim)
}

// SimResult is the timing simulator output.
type SimResult = gpusim.Result

// SimulateCNNDetailed runs the cycle-approximate warp-level simulator —
// the slow "GPGPU simulator" comparison point of the paper's
// introduction — on a zoo model.
func SimulateCNNDetailed(name, gpuID string, cfg Config) (*SimResult, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return nil, err
	}
	m, err := zoo.Build(name)
	if err != nil {
		return nil, err
	}
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err != nil {
		return nil, err
	}
	rep, err := dca.AnalyzeProgram(prog, dca.Options{})
	if err != nil {
		return nil, err
	}
	return gpusim.SimulateDetailed(prog, rep, spec, cfg.Sim)
}

// DCAReport is the dynamic code analysis result.
type DCAReport = dca.Report

// CVResult summarises a k-fold cross-validation run.
type CVResult = mlearn.CVResult

// CrossValidate scores a regressor with deterministic k-fold
// cross-validation over a dataset — a variance estimate complementing
// the paper's single 70/30 split.
func CrossValidate(factory func() Regressor, ds *Dataset, k int, seed int64) (CVResult, error) {
	X, y := ds.XY()
	return mlearn.CrossValidate(factory, X, y, k, seed)
}

// SweepPoint is one operating point of a DVFS frequency sweep.
type SweepPoint = gpusim.SweepPoint

// FrequencySweep simulates a zoo model on one GPU across several core
// clocks — the dynamic-frequency-scaling study of the paper's future
// work.
func FrequencySweep(name, gpuID string, clocksMHz []float64, cfg Config) ([]SweepPoint, error) {
	spec, err := gpu.Lookup(gpuID)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeCNN(name, cfg)
	if err != nil {
		return nil, err
	}
	return gpusim.FrequencySweep(a.Report, spec, clocksMHz, cfg.Sim)
}

// ExtendedFeatureNames is the future-work schema including FLOPs and
// MACs predictors (enable with Config.ExtendedFeatures).
var ExtendedFeatureNames = core.ExtendedFeatureNames

// StaticFeatureNames is the schema with the static-analysis predictors
// of internal/ptxanalysis appended — register pressure, loop nesting,
// branch density, instruction-mix and coalescing fractions (enable with
// Config.StaticFeatures).
var StaticFeatureNames = core.StaticFeatureNames

// BBFeatureNames are the per-basic-block predictors — abstract-
// interpretation block features (divergence, coalescing, stride, live
// registers) weighted by the DCA's per-block execution counts — that
// Config.BBFeatures adds to the schema, after every other block.
var BBFeatureNames = core.BBFeatureNames

// Diag is one static-analysis lint finding (code PTXA001-PTXA014).
type Diag = ptxanalysis.Diag

// Severity grades a lint diagnostic.
type Severity = ptxanalysis.Severity

// Severity levels of lint diagnostics.
const (
	SevInfo    = ptxanalysis.SevInfo
	SevWarning = ptxanalysis.SevWarning
	SevError   = ptxanalysis.SevError
)

// StaticAnalysis is the per-module static-analysis summary attached to
// every ModelAnalysis.
type StaticAnalysis = ptxanalysis.ModuleAnalysis

// LintCNN compiles a zoo model to PTX and runs the static-analysis lint
// over every generated kernel, returning the diagnostics errors-first
// per kernel. Kernels already analysed in cfg.Cache are not analysed
// again; without one, a cache for this call alone still analyses
// content-identical kernels once.
func LintCNN(name string, cfg Config) ([]Diag, error) {
	return LintCNNContext(context.Background(), name, cfg)
}

// LintCNNContext is LintCNN recording each analysed kernel's abstract
// interpretation as an "absint" span when ctx carries a tracer.
func LintCNNContext(ctx context.Context, name string, cfg Config) ([]Diag, error) {
	m, err := zoo.Build(name)
	if err != nil {
		return nil, err
	}
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err != nil {
		return nil, err
	}
	c := cfg.Cache
	if c == nil {
		c = analysiscache.New(0)
	}
	return ptxanalysis.LintCached(ctx, prog.Module, c), nil
}

// LintPTX parses PTX assembly text and lints every kernel in it,
// analysing content-identical kernels once.
func LintPTX(src string) ([]Diag, error) {
	return LintPTXContext(context.Background(), src)
}

// LintPTXContext is LintPTX recording each analysed kernel's abstract
// interpretation as an "absint" span when ctx carries a tracer.
func LintPTXContext(ctx context.Context, src string) ([]Diag, error) {
	m, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	return ptxanalysis.LintCached(ctx, m, analysiscache.New(0)), nil
}

// HasLintErrors reports whether any diagnostic is error-severity — the
// condition under which the dynamic code analysis rejects a kernel.
func HasLintErrors(diags []Diag) bool { return ptxanalysis.HasErrors(diags) }

// Design-space exploration types (see internal/dse).
type (
	// DSEConstraints bound the acceptable design points.
	DSEConstraints = dse.Constraints
	// DSECandidate is one scored device.
	DSECandidate = dse.Candidate
	// DSEResult is a ranked exploration outcome.
	DSEResult = dse.Result
	// DSEObjective selects the ranking criterion.
	DSEObjective = dse.Objective
)

// DSE objectives.
const (
	// MinLatency ranks devices by predicted inference latency.
	MinLatency = dse.MinLatency
	// MaxEfficiency ranks devices by performance per watt.
	MaxEfficiency = dse.MaxEfficiency
)

// ExploreDesignSpace ranks candidate GPUs for an analysed CNN under
// design constraints using the trained estimator — the accelerator
// selection problem the paper's introduction motivates.
func ExploreDesignSpace(est *Estimator, a *ModelAnalysis, candidateIDs []string, cons DSEConstraints, obj DSEObjective) (*DSEResult, error) {
	return dse.Explore(est, a, candidateIDs, cons, obj)
}

// LoadEstimator deserialises an estimator saved with Estimator.Save.
func LoadEstimator(r io.Reader) (*Estimator, error) { return core.LoadEstimator(r) }

// LoadGPUSpecs parses a JSON device catalogue (see gpu.ParseSpecs) and
// registers every entry, extending the design space with user hardware.
func LoadGPUSpecs(r io.Reader) error {
	specs, err := gpu.ParseSpecs(r)
	if err != nil {
		return err
	}
	for id, s := range specs {
		if err := gpu.Register(id, s); err != nil {
			return err
		}
	}
	return nil
}

// RegisterGPU adds one device spec to the catalogue.
func RegisterGPU(id string, s GPUSpec) error { return gpu.Register(id, s) }
