// Command perfbench is the repository benchmark. It runs one workload
// against the tree it was built from and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end numbers a user of the
// predictor sees (setup_s, p50_ms, p90_ms, ops_per_s, rss_peak_mb); with
// --trace 1 they are the per-layer numbers of a separate in-process
// traced run, which covers every workload whichever one is named. See
// README.md for the workloads and why they were chosen.
//
// Run it through run.sh, which builds the binaries of the tree under
// test first:
//
//	bash perfbench/run.sh --workload warm-predict --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, so one slow start does not move the figure.
const setupRepeats = 3

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs: its arguments, where the binaries
// of the tree under test live, and a scratch directory of its own.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	clients  int
	binDir   string
	workDir  string
}

func main() {
	workload := flag.String("workload", "", "warm-predict, cold-ptx or paper-pipeline")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the in-process traced run of every workload and prints per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the cnnperf and cnnperfd binaries")
	child := flag.String("child", "", "internal: run as the paper-pipeline worker process (\"setup\" or \"measure\")")
	flag.Parse()

	if *child != "" {
		if err := pipelineChild(*child, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pipeline worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fail(err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(work)
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		clients:  runtime.NumCPU(),
		binDir:   bin,
		workDir:  work,
	}

	var res *result
	switch {
	case *trace == 0 && *workload == "warm-predict":
		res, err = runWarm(e)
	case *trace == 0 && *workload == "cold-ptx":
		res, err = runCold(e)
	case *trace == 0 && *workload == "paper-pipeline":
		res, err = runPipeline(e)
	case *trace == 1 && (*workload == "warm-predict" || *workload == "cold-ptx" || *workload == "paper-pipeline"):
		res, err = traceRun(e)
	default:
		err = fmt.Errorf("unknown workload %q or trace %d (want warm-predict, cold-ptx or paper-pipeline; trace 0 or 1)", *workload, *trace)
	}
	if err != nil {
		os.RemoveAll(work)
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// logf prints a human-readable line; the result line stays last.
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// opStats summarizes per-operation latencies of a measured phase.
type opStats struct {
	n             int
	p50, p90      time.Duration
	mean          time.Duration
	opsPerSec     float64
	elapsed       time.Duration
	attempted     int64
	failed        int64
	samplesBeyond int
}

func summarize(lat []time.Duration, elapsed time.Duration, attempted, failed int64) opStats {
	s := opStats{n: len(lat), elapsed: elapsed, attempted: attempted, failed: failed}
	if len(lat) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.p50 = quantile(sorted, 0.5)
	s.p90 = quantile(sorted, 0.9)
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	s.mean = sum / time.Duration(len(sorted))
	s.opsPerSec = float64(len(sorted)) / elapsed.Seconds()
	s.samplesBeyond = len(sorted) - int(math.Ceil(0.9*float64(len(sorted))))
	return s
}

// quantile interpolates linearly between the closest ranks of an
// ascending slice (the "inclusive" method). On paper-pipeline's few
// operations per run it keeps p90 from being simply the slowest one.
func quantile(sorted []time.Duration, q float64) time.Duration {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i]))
}

func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// endToEnd assembles the --trace 0 result of a workload.
func endToEnd(e *env, setups []time.Duration, s opStats, rssKB int64, correct bool) *result {
	setup := medianDuration(setups)
	logf("%s: seed=%d clients=%d measured=%.1fs setup runs=%d", e.workload, e.seed, e.clients, s.elapsed.Seconds(), len(setups))
	for i, d := range setups {
		logf("  setup[%d] %.3fs", i, d.Seconds())
	}
	logf("  measured: attempted=%d succeeded=%d failed=%d samples=%d (%d beyond p90)",
		s.attempted, s.attempted-s.failed, s.failed, s.n, s.samplesBeyond)
	logf("  p50=%.3fms p90=%.3fms mean=%.3fms ops/s=%.2f rss_peak=%.1fMB correct=%t",
		ms(s.p50), ms(s.p90), ms(s.mean), s.opsPerSec, float64(rssKB)/1024, correct)
	return &result{
		Correct:   correct && s.failed == 0 && s.n > 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":     {setup.Seconds(), "s"},
			"p50_ms":      {ms(s.p50), "ms"},
			"p90_ms":      {ms(s.p90), "ms"},
			"ops_per_s":   {s.opsPerSec, "1/s"},
			"rss_peak_mb": {float64(rssKB) / 1024, "MB"},
		},
	}
}

// stopWithParent makes a child process receive SIGTERM if perfbench
// dies first (for example, killed on a timeout), so no replica or
// worker outlives a run.
func stopWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}

// vmHWM reads the peak resident set size (VmHWM, in KiB) of a process
// from /proc; pid 0 means this process.
func vmHWM(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
