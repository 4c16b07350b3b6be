package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"cnnperf"
	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
)

// paperDTMAPE is the Decision Tree's MAPE (percent, two decimals) on
// the frozen 70/30 split of the Table I dataset on the training GPUs.
const paperDTMAPE = "5.87"

// pipelineOp is one paper-pipeline operation: phase 1 (dataset over the
// Table I models on the training GPUs) and phase 2 (70/30 split and the
// five regressors). It returns the operation's cache counters and its
// correctness verdict. The build is serial (Workers 1), so the span
// self-times of a traced operation add up to its wall time, and each
// operation starts from a fresh analysis cache. Phase 2 calls
// core.EvaluateRegressorsContext, which the facade's EvaluateRegressors
// wraps with a background context and the default worker count, so a
// tracer on ctx also records the fits.
func pipelineOp(ctx context.Context) (analysiscache.Stats, error) {
	cfg := cnnperf.DefaultConfig()
	cfg.Workers = 1
	cfg.Cache = cnnperf.NewAnalysisCache(0)
	ds, _, err := cnnperf.BuildDatasetContext(ctx, cnnperf.TableIModels(), cnnperf.TrainingGPUs(), cfg)
	if err != nil {
		return analysiscache.Stats{}, err
	}
	train, eval, err := ds.Split(cfg.TrainFrac, cfg.SplitSeed)
	if err != nil {
		return analysiscache.Stats{}, err
	}
	evals, err := core.EvaluateRegressorsContext(ctx, train, eval, cnnperf.DefaultRegressors(cfg.SplitSeed), 0)
	if err != nil {
		return analysiscache.Stats{}, err
	}
	return cfg.Cache.Stats(), checkPaperShape(evals)
}

// checkPaperShape asserts the paper's Table II shape: the Decision Tree
// wins at 5.87 % MAPE and linear regression's R² is below zero.
func checkPaperShape(evals []cnnperf.Evaluation) error {
	best, err := cnnperf.BestByMAPE(evals)
	if err != nil {
		return err
	}
	if best.Name != "decision_tree" || strconv.FormatFloat(best.MAPE, 'f', 2, 64) != paperDTMAPE {
		return fmt.Errorf("best regressor %s at %.4f%% MAPE, want decision_tree at %s%%", best.Name, best.MAPE, paperDTMAPE)
	}
	for _, ev := range evals {
		if ev.Name == "linear_regression" && !(ev.R2 < 0) {
			return fmt.Errorf("linear regression R² = %.4f, want < 0", ev.R2)
		}
	}
	return nil
}

// childReport is what the measuring worker process prints when done.
type childReport struct {
	LatNs     []int64 `json:"lat_ns"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	ElapsedNs int64   `json:"elapsed_ns"`
	HWMKiB    int64   `json:"vm_hwm_kib"`
	FirstErr  string  `json:"first_err,omitempty"`
}

// pipelineChild is the dedicated paper-pipeline process. It runs one
// unmeasured warm-up operation (the first one after start is markedly
// slower), announces "ready", and in "measure" mode then repeats the
// operation for the measured phase.
func pipelineChild(mode string, dur time.Duration) error {
	ctx := context.Background()
	if _, err := pipelineOp(ctx); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	fmt.Println("ready")
	if mode == "setup" {
		return nil
	}
	var rep childReport
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		_, err := pipelineOp(ctx)
		d := time.Since(t0)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			if rep.FirstErr == "" {
				rep.FirstErr = err.Error()
			}
			continue
		}
		rep.LatNs = append(rep.LatNs, d.Nanoseconds())
	}
	rep.ElapsedNs = time.Since(start).Nanoseconds()
	hwm, err := vmHWM(0)
	if err != nil {
		return err
	}
	rep.HWMKiB = hwm
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runPipeline measures paper-pipeline: set-up is starting the worker
// process and its warm-up operation, repeated; the last worker then
// runs the measured phase.
func runPipeline(e *env) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var (
		setups []time.Duration
		rep    childReport
	)
	for i := 0; i < setupRepeats; i++ {
		mode := "setup"
		if i == setupRepeats-1 {
			mode = "measure"
		}
		t0 := time.Now()
		cmd := exec.Command(self, "--child", mode, "--seconds", strconv.Itoa(int(e.seconds/time.Second)))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = stopWithParent()
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		ready := false
		var last string
		for sc.Scan() {
			if !ready && sc.Text() == "ready" {
				ready = true
				setups = append(setups, time.Since(t0))
				continue
			}
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("pipeline worker: %w", err)
		}
		if !ready {
			return nil, fmt.Errorf("pipeline worker never became ready")
		}
		if mode == "measure" {
			if err := json.Unmarshal([]byte(last), &rep); err != nil {
				return nil, fmt.Errorf("pipeline worker report: %w", err)
			}
		}
	}
	if rep.FirstErr != "" {
		logf("first failure: %s", rep.FirstErr)
	}
	lat := make([]time.Duration, len(rep.LatNs))
	for i, ns := range rep.LatNs {
		lat[i] = time.Duration(ns)
	}
	s := summarize(lat, time.Duration(rep.ElapsedNs), rep.Attempted, rep.Failed)
	return endToEnd(e, setups, s, rep.HWMKiB, rep.Failed == 0), nil
}
