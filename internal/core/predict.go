package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cnnperf/internal/cnn"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// This file holds the single-model prediction entry points the serving
// daemon and the `cnnperf predict`/`cnnperf dse` subcommands share, so
// an IPC served over HTTP is byte-identical to one printed by the CLI:
// both sides call the same functions with the same configuration.

// AnalyzeCNNContext is AnalyzeCNN with cancellation between pipeline
// stages.
func AnalyzeCNNContext(ctx context.Context, name string, cfg Config) (*ModelAnalysis, error) {
	m, err := zoo.Build(name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return AnalyzeModelContext(ctx, m, cfg)
}

// LeaveOneOutModels returns the Table I training inventory with exclude
// removed (in table order). Excluding the prediction target keeps a
// zoo-model prediction honest: the estimator never saw the CNN it is
// asked about. An exclude outside Table I leaves the inventory intact.
func LeaveOneOutModels(exclude string) []string {
	var out []string
	for _, n := range zoo.TableIOrder {
		if n != exclude {
			out = append(out, n)
		}
	}
	return out
}

// LeaveOneOutEstimatorContext fits the winning Decision Tree on the
// phase-1 dataset over every Table I model except exclude on the
// paper's two training GPUs — exactly the training path of `cnnperf
// predict`. The rows come from the one Table I dataset of cfg (see
// tableIDataset) with exclude's rows dropped: a row depends only on its
// own model and GPU, so it trains on exactly the rows
// BuildDatasetContext(LeaveOneOutModels(exclude), …) would build.
func LeaveOneOutEstimatorContext(ctx context.Context, exclude string, cfg Config) (*Estimator, error) {
	full, err := tableIDataset(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return TrainEstimatorContext(ctx, withoutModel(full, exclude), mlearn.NewDecisionTree())
}

// tableIDataset returns the phase-1 dataset over every Table I model on
// the training GPUs, its rows in zoo.TableIOrder, len(gpu.TrainingGPUs)
// consecutive rows per model. With cfg.Cache set it is built once per
// configuration fingerprint and shared, so callers must not modify it.
func tableIDataset(ctx context.Context, cfg Config) (*dataset.Dataset, error) {
	build := func() (any, error) {
		ds, _, err := BuildDatasetContext(ctx, LeaveOneOutModels(""), append([]string(nil), gpu.TrainingGPUs...), cfg)
		return ds, err
	}
	var v any
	var err error
	if cfg.Cache == nil {
		v, err = build()
	} else {
		// The artifact tier has no codec for the tableI namespace, so the
		// dataset lives in memory only: the estimators trained from it and
		// the DCA reports it is rebuilt from are what a store keeps.
		v, _, err = cfg.Cache.GetOrCompute("tableI:"+ConfigFingerprint(cfg), build)
	}
	if err != nil {
		return nil, err
	}
	return v.(*dataset.Dataset), nil
}

// withoutModel copies the Table I dataset without the rows of exclude,
// found by its position in zoo.TableIOrder. An exclude outside Table I
// drops nothing.
func withoutModel(full *dataset.Dataset, exclude string) *dataset.Dataset {
	skip := slices.Index(zoo.TableIOrder, exclude)
	perModel := len(gpu.TrainingGPUs)
	ds := dataset.New(full.FeatureNames)
	ds.Rows = make([]dataset.Row, 0, len(full.Rows))
	for i, r := range full.Rows {
		if i/perModel == skip {
			continue
		}
		ds.Rows = append(ds.Rows, dataset.Row{Tag: r.Tag, X: slices.Clone(r.X), Y: r.Y})
	}
	return ds
}

// Prediction is one per-GPU IPC estimate of a single-model prediction.
type Prediction struct {
	// GPU is the device id ("gtx1080ti").
	GPU string
	// GPUName is the marketing name from the catalogue.
	GPUName string
	// IPC is the predicted instructions-per-cycle.
	IPC float64
}

// PredictAnalyzedContext scores an analysed model on each named GPU
// with the given estimator.
func PredictAnalyzedContext(ctx context.Context, est *Estimator, a *ModelAnalysis, gpus []string) ([]Prediction, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("core: need at least one GPU")
	}
	out := make([]Prediction, 0, len(gpus))
	for _, id := range gpus {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := gpu.Lookup(id)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ipc, err := est.PredictContext(ctx, a, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, Prediction{GPU: id, GPUName: spec.Name, IPC: ipc})
	}
	return out, nil
}

// PredictCNNContext estimates the IPC of one zoo model on each named
// GPU without executing it: leave-one-out training, analysis, and
// per-GPU prediction in one call. The returned analysis carries the
// executed-instruction count and timings for reporting.
func PredictCNNContext(ctx context.Context, model string, gpus []string, cfg Config) ([]Prediction, *ModelAnalysis, error) {
	est, err := LeaveOneOutEstimatorContext(ctx, model, cfg)
	if err != nil {
		return nil, nil, err
	}
	a, err := AnalyzeCNNContext(ctx, model, cfg)
	if err != nil {
		return nil, nil, err
	}
	preds, err := PredictAnalyzedContext(ctx, est, a, gpus)
	if err != nil {
		return nil, nil, err
	}
	return preds, a, nil
}

// PTXOptions configures AnalyzePTXContext for kernels that arrive as
// raw PTX text instead of a zoo model: the launch geometry is not in
// the assembly, so the caller supplies it (one synthetic launch per
// kernel), along with the trainable-parameter predictor the Static
// Analyzer would have extracted from a topology.
type PTXOptions struct {
	// Name labels the analysis (default "ptx").
	Name string
	// TrainableParams is the c-predictor value to use for the module.
	TrainableParams int64
	// GridX and BlockX shape the synthetic launch of every kernel
	// (defaults 2 blocks of 32 threads).
	GridX, BlockX int
	// MaxSteps bounds the abstract execution of each thread (0 selects
	// the dca default); servers lower it to cap adversarial payloads.
	MaxSteps int64
}

func (o PTXOptions) name() string {
	if o.Name == "" {
		return "ptx"
	}
	return o.Name
}

// Grid returns the synthetic launch shape with the defaults applied.
func (o PTXOptions) Grid() (gridX, blockX int) {
	gridX, blockX = o.GridX, o.BlockX
	if gridX <= 0 {
		gridX = 2
	}
	if blockX <= 0 {
		blockX = 32
	}
	return gridX, blockX
}

// AnalyzePTXContext parses raw PTX assembly and runs the dynamic and
// static analyses over every kernel in it, returning a ModelAnalysis
// usable with Estimator.Predict. Each kernel gets one synthetic launch
// (opt.GridX x opt.BlockX, deterministic non-zero parameter values), so
// the executed-instruction predictor is well defined without a CNN
// graph.
func AnalyzePTXContext(ctx context.Context, src string, opt PTXOptions, cfg Config) (*ModelAnalysis, error) {
	start := time.Now()
	ctx, span := obs.Start(ctx, "model.analyze", obs.String("model", opt.name()))
	defer span.End()
	_, parseSpan := obs.Start(ctx, "ptx.parse", obs.Int("bytes", len(src)))
	m, err := ptx.Parse(src)
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(m.Kernels) == 0 {
		return nil, fmt.Errorf("core: PTX module has no kernels")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gridX, blockX := opt.Grid()
	launches := make([]ptxgen.Launch, 0, len(m.Kernels))
	for _, k := range m.Kernels {
		params := make(map[string]int64, len(k.Params))
		for i, p := range k.Params {
			params[p.Name] = int64(7 + 13*i) // synthetic non-zero values
		}
		threads := int64(gridX) * int64(blockX)
		launches = append(launches, ptxgen.Launch{
			Kernel:          k.Name,
			GridX:           gridX,
			BlockX:          blockX,
			Threads:         threads,
			Params:          params,
			WorkingSetBytes: threads * 8,
			Node:            k.Name,
		})
	}
	prog := &ptxgen.Program{Model: opt.name(), Module: m, Launches: launches}
	summary := cnn.Summary{Name: opt.name(), TrainableParams: opt.TrainableParams}
	opts := dca.Options{Exec: dca.ExecOptions{MaxSteps: opt.MaxSteps}, BlockCounts: cfg.BBFeatures}
	return analyzeProgram(ctx, prog, summary, opts, cfg, start)
}
