// Command cnnperf is the command-line front end of the performance
// estimation pipeline.
//
// Usage:
//
//	cnnperf models                      list the CNN zoo
//	cnnperf gpus                        list the GPU catalogue
//	cnnperf analyze <model>             static + dynamic analysis of one CNN
//	cnnperf lint [-json] <model|file>   static-analysis diagnostics of generated or on-disk PTX
//	                                    (exit 0 clean/info, 1 warnings, 2 errors; output is
//	                                    sorted by kernel, line, code)
//	cnnperf dataset [-out file.csv] [-workers n] [-cachestats]
//	                                    build the phase-1 training dataset
//	cnnperf evaluate                    compare the five regressors (Table II)
//	cnnperf predict <model> <gpu>       estimate IPC without execution
//	cnnperf profile <model> <gpu>       nvprof-style simulated profile
//	cnnperf sweep <model> <gpu>         DVFS frequency sweep
//	cnnperf crossval [-k n]             k-fold cross-validation of all regressors
//	cnnperf train [-out est.json]       train and persist the Decision Tree estimator
//	cnnperf dot <model>                 Graphviz dot of the CNN graph
//	cnnperf dse <model> [-power W] [-latency s] [-eff]
//	                                    rank candidate GPUs under constraints
//	cnnperf stats                       dataset feature statistics
//	cnnperf store <warm|export|import|verify|gc>
//	                                    manage the persistent artifact store
//	                                    (see store.go; feeds cnnperfd warm boots)
//
// The global -cpuprofile and -memprofile flags (before the subcommand)
// write pprof profiles of the pipeline itself; -trace writes a Chrome
// trace_event JSON of the pipeline spans (open in chrome://tracing or
// Perfetto), and -trace-tree prints the span tree to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"cnnperf"
	"cnnperf/internal/core"
	"cnnperf/internal/mlearn/dataset"
	"cnnperf/internal/obs"
	"cnnperf/internal/profiler"
)

// traceSpanLimit caps recorded spans so a zoo-wide dataset build cannot
// balloon the trace without bound; dropped spans are reported.
const traceSpanLimit = 200_000

func main() {
	log.SetFlags(0)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the pipeline spans to this file")
	traceTree := flag.Bool("trace-tree", false, "print the recorded span tree to stderr after the run")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	stopProfiles, err := profiler.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatalf("cnnperf: %v", err)
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" || *traceTree {
		tracer = obs.NewTracer()
		tracer.SetLimit(traceSpanLimit)
		ctx = obs.WithTracer(ctx, tracer)
	}
	err = dispatch(ctx, args)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	// The trace is written even when the run failed: a trace of the
	// spans reached before the failure is exactly what debugging wants.
	if terr := writeTrace(tracer, *traceOut, *traceTree); err == nil {
		err = terr
	}
	if err != nil {
		// The lint sentinels carry the documented exit-code contract:
		// 2 for error-severity findings, 1 for warning-severity ones
		// (matching every other failure).
		log.Printf("cnnperf: %v", err)
		if errors.Is(err, errLintErrors) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// writeTrace exports the recorded spans (no-op without a tracer).
func writeTrace(tracer *obs.Tracer, out string, tree bool) error {
	if tracer == nil {
		return nil
	}
	if tree {
		fmt.Fprint(os.Stderr, tracer.Tree())
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", tracer.SpanCount(), out)
	return nil
}

func dispatch(ctx context.Context, args []string) error {
	cfg := cnnperf.DefaultConfig()
	ctx, span := obs.Start(ctx, "cnnperf."+args[0])
	defer span.End()
	switch args[0] {
	case "models":
		for _, n := range cnnperf.ModelNames() {
			fmt.Println(n)
		}
		return nil
	case "gpus":
		for _, id := range cnnperf.GPUNames() {
			spec := cnnperf.MustGPU(id)
			fmt.Printf("%-12s %-22s %5d cores %4d SMs %7.0f GB/s %6d KiB L2\n",
				id, spec.Name, spec.CUDACores, spec.SMs, spec.MemBandwidthGBs, spec.L2CacheKB)
		}
		return nil
	case "analyze":
		return runAnalyze(ctx, args[1:], cfg)
	case "lint":
		return runLint(ctx, args[1:], cfg)
	case "dataset":
		return runDataset(ctx, args[1:], cfg)
	case "evaluate":
		return runEvaluate(ctx, cfg)
	case "predict":
		return runPredict(ctx, args[1:], cfg)
	case "profile":
		return runProfile(args[1:], cfg)
	case "sweep":
		return runSweep(args[1:], cfg)
	case "crossval":
		return runCrossval(ctx, args[1:], cfg)
	case "train":
		return runTrain(ctx, args[1:], cfg)
	case "dot":
		return runDot(args[1:])
	case "dse":
		return runDSE(ctx, args[1:], cfg)
	case "stats":
		return runStats(ctx, cfg)
	case "store":
		return runStore(ctx, args[1:], cfg)
	default:
		usage()
		os.Exit(2)
		return nil
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cnnperf [-cpuprofile file] [-memprofile file] <models|gpus|analyze|lint|dataset|evaluate|predict|profile|sweep|crossval|train|dot|dse|stats|store> [args]")
}

func runAnalyze(ctx context.Context, args []string, cfg cnnperf.Config) error {
	if len(args) != 1 {
		return fmt.Errorf("analyze needs exactly one model name")
	}
	a, err := core.AnalyzeCNNContext(ctx, args[0], cfg)
	if err != nil {
		return err
	}
	fmt.Printf("model:                  %s\n", a.Name)
	fmt.Printf("input:                  %s\n", a.Summary.Input)
	fmt.Printf("weighted layers:        %d\n", a.Summary.Layers)
	fmt.Printf("graph nodes:            %d\n", a.Summary.TotalNodes)
	fmt.Printf("trainable parameters:   %d\n", a.Summary.TrainableParams)
	fmt.Printf("neurons:                %d\n", a.Summary.Neurons)
	fmt.Printf("forward FLOPs:          %d\n", a.Summary.FLOPs)
	fmt.Printf("kernels:                %d\n", len(a.Report.Kernels))
	fmt.Printf("executed instructions:  %d\n", a.Report.Executed)
	fmt.Printf("mean control slice:     %.1f%% of static code\n", 100*a.Report.MeanSliceFraction)
	fmt.Printf("analysis time (t_dca):  %s\n", a.DCATime.Round(1e5))
	return nil
}

func runLint(ctx context.Context, args []string, cfg cnnperf.Config) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("lint needs one <model|ptx-file> argument")
	}
	target := fs.Arg(0)
	var diags []cnnperf.Diag
	if data, rerr := os.ReadFile(target); rerr == nil {
		var err error
		if diags, err = cnnperf.LintPTXContext(ctx, string(data)); err != nil {
			return err
		}
	} else {
		var err error
		if diags, err = cnnperf.LintCNNContext(ctx, target, cfg); err != nil {
			return err
		}
	}
	if *jsonOut {
		if diags == nil {
			diags = []cnnperf.Diag{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		fmt.Printf("%d diagnostics\n", len(diags))
	}
	// Exit-code contract: 2 on error-severity findings, 1 on warnings,
	// 0 when clean (info-only diagnostics count as clean).
	if cnnperf.HasLintErrors(diags) {
		return errLintErrors
	}
	for _, d := range diags {
		if d.Severity == cnnperf.SevWarning {
			return errLintWarnings
		}
	}
	return nil
}

// errLintErrors and errLintWarnings are the lint verdict sentinels main
// maps onto the documented exit codes (2 and 1 respectively).
var (
	errLintErrors   = errors.New("lint found error-severity diagnostics")
	errLintWarnings = errors.New("lint found warning-severity diagnostics")
)

func runDataset(ctx context.Context, args []string, cfg cnnperf.Config) error {
	fs := flag.NewFlagSet("dataset", flag.ContinueOnError)
	out := fs.String("out", "dataset.csv", "output CSV path")
	workers := fs.Int("workers", 0, "worker pool size for the per-model analyses (0 = GOMAXPROCS)")
	cachestats := fs.Bool("cachestats", false, "print the analysis-cache hit/miss counters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Workers = *workers
	cache := cnnperf.NewAnalysisCache(0)
	cfg.Cache = cache
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d observations to %s\n", ds.Len(), *out)
	if *cachestats {
		fmt.Printf("analysis cache: %s\n", cache.Stats())
	}
	return nil
}

func runEvaluate(ctx context.Context, cfg cnnperf.Config) error {
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return err
	}
	train, eval, err := ds.Split(0.7, cfg.SplitSeed)
	if err != nil {
		return err
	}
	evals, err := core.EvaluateRegressorsContext(ctx, train, eval, cnnperf.DefaultRegressors(cfg.SplitSeed), 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %8s %9s\n", "Regression Model", "MAPE", "R2", "adj.R2")
	for _, e := range evals {
		fmt.Printf("%-20s %9.2f%% %8.3f %9.3f\n", e.Name, e.MAPE, e.R2, e.AdjR2)
	}
	best, err := cnnperf.BestByMAPE(evals)
	if err != nil {
		return err
	}
	fmt.Printf("winner: %s\n", best.Name)
	return nil
}

func runPredict(ctx context.Context, args []string, cfg cnnperf.Config) error {
	if len(args) != 2 {
		return fmt.Errorf("predict needs <model> <gpu>")
	}
	model, gpuID := args[0], args[1]
	spec, err := cnnperf.GPU(gpuID)
	if err != nil {
		return err
	}
	// Shared with cnnperfd's /v1/predict: leave-one-out training (so
	// the prediction is honest even for zoo models), analysis, and
	// per-GPU scoring all go through the same core entry points, which
	// is what keeps the CLI and the daemon byte-identical.
	est, err := core.LeaveOneOutEstimatorContext(ctx, model, cfg)
	if err != nil {
		return err
	}
	a, err := core.AnalyzeCNNContext(ctx, model, cfg)
	if err != nil {
		return err
	}
	preds, err := core.PredictAnalyzedContext(ctx, est, a, []string{gpuID})
	if err != nil {
		return err
	}
	ipc := preds[0].IPC
	fmt.Printf("predicted IPC of %s on %s: %.1f (in %s)\n", model, spec.Name, ipc, est.LastPredictTime())
	// Ground truth from the simulator for comparison.
	sim, err := cnnperf.SimulateCNN(model, gpuID, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated (measured) IPC:          %.1f  (error %+.1f%%)\n",
		sim.IPC, 100*(ipc-sim.IPC)/sim.IPC)
	return nil
}

func runProfile(args []string, cfg cnnperf.Config) error {
	if len(args) != 2 {
		return fmt.Errorf("profile needs <model> <gpu>")
	}
	p, err := cnnperf.ProfileCNN(args[0], args[1], cfg)
	if err != nil {
		return err
	}
	fmt.Print(p.Format(15))
	return nil
}

func runSweep(args []string, cfg cnnperf.Config) error {
	if len(args) != 2 {
		return fmt.Errorf("sweep needs <model> <gpu>")
	}
	spec, err := cnnperf.GPU(args[1])
	if err != nil {
		return err
	}
	base := spec.BoostClockMHz
	clocks := []float64{0.5 * base, 0.65 * base, 0.8 * base, 0.9 * base, base, 1.15 * base, 1.3 * base}
	points, err := cnnperf.FrequencySweep(args[0], args[1], clocks, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("DVFS sweep of %s on %s:\n", args[0], spec.Name)
	fmt.Printf("%10s %12s %12s %10s %10s\n", "clock MHz", "runtime s", "IPC", "power W", "energy J")
	for _, pt := range points {
		fmt.Printf("%10.0f %12.5f %12.1f %10.1f %10.2f\n",
			pt.ClockMHz, pt.Result.RuntimeSec, pt.Result.IPC, pt.Result.AvgPowerW, pt.Result.EnergyJ)
	}
	return nil
}

func runCrossval(ctx context.Context, args []string, cfg cnnperf.Config) error {
	fs := flag.NewFlagSet("crossval", flag.ContinueOnError)
	k := fs.Int("k", 5, "number of folds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return err
	}
	factories := map[string]func() cnnperf.Regressor{
		"linear_regression": func() cnnperf.Regressor { return cnnperf.NewLinearRegression() },
		"knn":               func() cnnperf.Regressor { return cnnperf.NewKNN(3) },
		"random_forest":     func() cnnperf.Regressor { return cnnperf.NewRandomForest(100, cfg.SplitSeed) },
		"decision_tree":     func() cnnperf.Regressor { return cnnperf.NewDecisionTree() },
		"xgboost":           func() cnnperf.Regressor { return cnnperf.NewXGBoost(cfg.SplitSeed) },
	}
	fmt.Printf("%-20s %12s %12s %10s\n", "Regression Model", "mean MAPE", "std MAPE", "mean R2")
	for _, name := range []string{"linear_regression", "knn", "random_forest", "decision_tree", "xgboost"} {
		res, err := cnnperf.CrossValidate(factories[name], ds, *k, cfg.SplitSeed)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %11.2f%% %11.2f%% %10.3f\n", name, res.MeanMAPE, res.StdMAPE, res.MeanR2)
	}
	return nil
}

func runTrain(ctx context.Context, args []string, cfg cnnperf.Config) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	out := fs.String("out", "estimator.json", "output path for the trained estimator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return err
	}
	est, err := core.TrainEstimatorContext(ctx, ds, cnnperf.NewDecisionTree())
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := est.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained decision-tree estimator on %d observations, saved to %s\n", ds.Len(), *out)
	return nil
}

func runDot(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("dot needs exactly one model name")
	}
	m, err := cnnperf.BuildCNN(args[0])
	if err != nil {
		return err
	}
	fmt.Print(m.DOT())
	return nil
}

func runDSE(ctx context.Context, args []string, cfg cnnperf.Config) error {
	if len(args) < 1 {
		return fmt.Errorf("dse needs a model name")
	}
	model := args[0]
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	power := fs.Float64("power", 0, "power budget in watts (0 = unconstrained)")
	latency := fs.Float64("latency", 0, "latency bound in seconds (0 = unconstrained)")
	eff := fs.Bool("eff", false, "rank by performance per watt instead of latency")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	est, err := core.LeaveOneOutEstimatorContext(ctx, model, cfg)
	if err != nil {
		return err
	}
	a, err := core.AnalyzeCNNContext(ctx, model, cfg)
	if err != nil {
		return err
	}
	obj := cnnperf.MinLatency
	if *eff {
		obj = cnnperf.MaxEfficiency
	}
	res, err := cnnperf.ExploreDesignSpace(est, a, cnnperf.GPUNames(),
		cnnperf.DSEConstraints{MaxPowerW: *power, MaxLatencySec: *latency}, obj)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runStats(ctx context.Context, cfg cnnperf.Config) error {
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return err
	}
	stats, err := ds.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d observations\n", ds.Len())
	fmt.Print(dataset.FormatStats(stats))
	return nil
}
