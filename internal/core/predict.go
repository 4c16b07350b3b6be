package core

import (
	"context"
	"fmt"
	"time"

	"cnnperf/internal/cnn"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpu"
	"cnnperf/internal/mlearn"
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

// LeaveOneOutEstimatorContext builds the phase-1 dataset over every
// Table I model except exclude on the paper's two training GPUs and
// fits the winning Decision Tree on it — exactly the training path of
// `cnnperf predict`.
func LeaveOneOutEstimatorContext(ctx context.Context, exclude string, cfg Config) (*Estimator, error) {
	ds, _, err := BuildDatasetContext(ctx, LeaveOneOutModels(exclude), append([]string(nil), gpu.TrainingGPUs...), cfg)
	if err != nil {
		return nil, err
	}
	return TrainEstimatorContext(ctx, ds, mlearn.NewDecisionTree())
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
	static, err := staticPass(ctx, m, cfg.Cache)
	if err != nil {
		return nil, err
	}
	rep, err := dca.AnalyzeProgramContext(ctx, prog, dca.Options{
		Cache:  cfg.Cache,
		Exec:   dca.ExecOptions{MaxSteps: opt.MaxSteps},
		Static: static,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &ModelAnalysis{
		Name:    opt.name(),
		Summary: cnn.Summary{Name: opt.name(), TrainableParams: opt.TrainableParams},
		Report:  rep,
		Static:  static,
		DCATime: time.Since(start),
	}, nil
}
