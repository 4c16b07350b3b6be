package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cnnperf"
	"cnnperf/internal/server"
)

// warmModels are the warm-predict request set, small to large. Every
// request asks for both training GPUs.
var (
	warmModels = []string{"alexnet", "mobilenet", "resnet50", "vgg16"}
	benchGPUs  = []string{"gtx1080ti", "v100s"}
)

// coldCacheSize bounds the replica's analysis cache on cold-ptx, so the
// heap and the eviction rate reach a steady state within one run
// instead of growing with run length.
const coldCacheSize = 4096

// Warm-up passes run before every measured phase and count in setup_s.
const (
	warmupRequests     = 200
	coldWarmupRequests = 40
)

// replica is one cnnperfd process built from the tree under test.
type replica struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startReplica launches cnnperfd with args and waits until /healthz
// answers.
func startReplica(e *env, name string, args ...string) (*replica, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(e.workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(e.binDir, "cnnperfd"),
		append([]string{"-addr", addr, "-log-level", "error"}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = stopWithParent()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting cnnperfd: %w", err)
	}
	r := &replica{cmd: cmd, url: "http://" + addr, log: logFile, done: make(chan error, 1)}
	go func() { r.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(r.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		select {
		case err := <-r.done:
			r.done <- err
			r.stop()
			return nil, fmt.Errorf("cnnperfd exited during start-up (%v); see %s", err, logFile.Name())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			r.stop()
			return nil, fmt.Errorf("cnnperfd did not answer /healthz within 60s")
		}
	}
}

// stop sends SIGTERM (graceful drain), kills after 10s, and waits for
// the process to exit.
func (r *replica) stop() {
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
	r.log.Close()
}

func (r *replica) pid() int { return r.cmd.Process.Pid }

// newClient returns a keep-alive client with one connection per
// closed-loop client.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// op is one request of a closed loop and the check of its answer.
type op struct {
	body  []byte
	check func(status int, resp []byte) error
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat       []time.Duration
	attempted int64
	failed    int64
	elapsed   time.Duration
	firstErr  error
	// firstHalf counts the successful requests that completed in the
	// first half of the loop, to show whether throughput drifts within
	// a run.
	firstHalf int64
}

// closedLoop runs `clients` workers, each sending its next request only
// after the previous answer arrived, until dur has passed. Only
// successful requests contribute latencies; failures are counted.
// next is called with the worker index and must be safe for concurrent
// use.
func closedLoop(c *http.Client, url string, clients int, dur time.Duration, next func(worker int) op) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	mid := start.Add(dur / 2)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat []time.Duration
			var attempted, failed, firstHalf int64
			var firstErr error
			for time.Now().Before(deadline) {
				o := next(w)
				t0 := time.Now()
				status, body, err := post(c, url, o.body)
				d := time.Since(t0)
				attempted++
				if err == nil {
					err = o.check(status, body)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, d)
				if t0.Add(d).Before(mid) {
					firstHalf++
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.attempted += attempted
			res.failed += failed
			res.firstHalf += firstHalf
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// logHalves prints the throughput of each half of a measured loop.
func logHalves(lr loopResult) {
	half := lr.elapsed.Seconds() / 2
	logf("  ops/s in the first half %.2f, in the second half %.2f",
		float64(lr.firstHalf)/half, float64(int64(len(lr.lat))-lr.firstHalf)/half)
}

func wantOK(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	return nil
}

func predictBody(model string) []byte {
	b, _ := json.Marshal(server.PredictRequest{Model: model, GPUs: benchGPUs})
	return b
}

// warmSetup is one warm-predict set-up: build the snapshot with the
// tree's own CLI, boot a replica from it, and run the warm-up pass. It
// returns the replica and each model's first answer.
func warmSetup(e *env, c *http.Client, rep int) (*replica, map[string][]byte, error) {
	snap, err := buildSnapshot(e, rep)
	if err != nil {
		return nil, nil, err
	}
	r, err := startReplica(e, fmt.Sprintf("warm-%d", rep), "-snapshot", snap)
	if err != nil {
		return nil, nil, err
	}
	first := make(map[string][]byte, len(warmModels))
	for _, m := range warmModels {
		status, body, err := post(c, r.url+"/v1/predict", predictBody(m))
		if err == nil {
			err = wantOK(status, body)
		}
		if err != nil {
			r.stop()
			return nil, nil, fmt.Errorf("warm-up %s: %w", m, err)
		}
		first[m] = body
	}
	if err := warmupLoop(c, r.url+"/v1/predict", e.clients, warmupRequests, func(i int) op {
		m := warmModels[i%len(warmModels)]
		return op{body: predictBody(m), check: sameAs(first[m])}
	}); err != nil {
		r.stop()
		return nil, nil, err
	}
	return r, first, nil
}

// buildSnapshot warms a fresh artifact store for the warm-predict
// models with the tree's own CLI and exports it to a snapshot file.
func buildSnapshot(e *env, rep int) (string, error) {
	storeDir := filepath.Join(e.workDir, fmt.Sprintf("store-%d", rep))
	snap := filepath.Join(e.workDir, fmt.Sprintf("warm-%d.snap", rep))
	defer os.RemoveAll(storeDir)
	cli := filepath.Join(e.binDir, "cnnperf")
	for _, args := range [][]string{
		{"store", "warm", "-dir", storeDir, "-models", strings.Join(warmModels, ",")},
		{"store", "export", "-dir", storeDir, "-out", snap},
	} {
		out, err := exec.Command(cli, args...).CombinedOutput()
		if err != nil {
			return "", fmt.Errorf("cnnperf %v: %v\n%s", args[:2], err, out)
		}
	}
	return snap, nil
}

// warmupLoop sends n requests over `clients` workers without measuring
// them; any failure aborts the run.
func warmupLoop(c *http.Client, url string, clients, n int, next func(i int) op) error {
	var (
		mu       sync.Mutex
		i        int
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if i >= n || firstErr != nil {
					mu.Unlock()
					return
				}
				o := next(i)
				i++
				mu.Unlock()
				status, body, err := post(c, url, o.body)
				if err == nil {
					err = o.check(status, body)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up: %w", err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// sameAs checks that an answer is byte-identical to want.
func sameAs(want []byte) func(int, []byte) error {
	return func(status int, body []byte) error {
		if err := wantOK(status, body); err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("answer differs from the first answer for the same request")
		}
		return nil
	}
}

// runWarm measures warm-predict: /v1/predict of zoo models against a
// replica booted from a snapshot.
func runWarm(e *env) (*result, error) {
	c := newClient(e.clients)
	var (
		setups []time.Duration
		r      *replica
		first  map[string][]byte
	)
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		var err error
		r, first, err = warmSetup(e, c, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if rep < setupRepeats-1 {
			r.stop()
		}
	}
	defer r.stop()
	rngs := make([]*rand.Rand, e.clients)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(e.seed*1000 + int64(w)))
	}
	lr := closedLoop(c, r.url+"/v1/predict", e.clients, e.seconds, func(w int) op {
		m := warmModels[rngs[w].Intn(len(warmModels))]
		return op{body: predictBody(m), check: sameAs(first[m])}
	})
	rss, err := vmHWM(r.pid())
	if err != nil {
		return nil, err
	}
	if lr.firstErr != nil {
		logf("first failure: %v", lr.firstErr)
	}
	logHalves(lr)
	correct := warmMatchesCold(e, first)
	return endToEnd(e, setups, summarize(lr.lat, lr.elapsed, lr.attempted, lr.failed), rss, correct), nil
}

// warmMatchesCold checks that the snapshot-served answers are
// byte-identical to the cold path's: the same requests answered by an
// in-process server that computes everything from scratch. Two models,
// chosen by the seed, are checked per run.
func warmMatchesCold(e *env, first map[string][]byte) bool {
	srv := server.New(server.Config{DisableFlightRecorder: true})
	defer srv.Close()
	rng := rand.New(rand.NewSource(e.seed))
	ok := true
	for _, i := range rng.Perm(len(warmModels))[:2] {
		m := warmModels[i]
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(m))))
		same := rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), first[m])
		logf("  check: warm answer for %s byte-identical to cold path: %t", m, same)
		ok = ok && same
	}
	return ok
}

// runCold measures cold-ptx: /v1/predict of generated raw PTX whose
// every kernel is new, against a replica with a bounded cache.
func runCold(e *env) (*result, error) {
	base, params, err := coldBase()
	if err != nil {
		return nil, err
	}
	gen, err := newColdGen(base, e.seed)
	if err != nil {
		return nil, err
	}
	// Set-up payloads come from the same generator, ahead of the measured
	// ones, so no kernel is ever sent twice in a run; the checked sample
	// is drawn from the first 200 measured requests.
	samples := sampleIndices(e.seed, 3, 200, setupRepeats*coldWarmupRequests)
	kept := make(map[int]string)
	var genMu sync.Mutex
	nextPayload := func() (int, []byte) {
		genMu.Lock()
		defer genMu.Unlock()
		i, src := gen.next()
		if samples[i] {
			kept[i] = src
		}
		b, _ := json.Marshal(server.PredictRequest{PTX: src, TrainableParams: params, GPUs: benchGPUs})
		return i, b
	}
	c := newClient(e.clients)
	var (
		setups []time.Duration
		r      *replica
	)
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		r, err = startReplica(e, fmt.Sprintf("cold-%d", rep), "-cache-size", strconv.Itoa(coldCacheSize))
		if err != nil {
			return nil, err
		}
		err = warmupLoop(c, r.url+"/v1/predict", e.clients, coldWarmupRequests, func(int) op {
			_, b := nextPayload()
			return op{body: b, check: wantOK}
		})
		if err != nil {
			r.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if rep < setupRepeats-1 {
			r.stop()
		}
	}
	defer r.stop()

	var exMu sync.Mutex
	executed := make(map[int]int64)
	before, err := cacheStats(c, r.url)
	if err != nil {
		return nil, err
	}
	lr := closedLoop(c, r.url+"/v1/predict", e.clients, e.seconds, func(int) op {
		i, b := nextPayload()
		return op{body: b, check: func(status int, body []byte) error {
			if err := wantOK(status, body); err != nil {
				return err
			}
			if samples[i] {
				var resp server.PredictResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					return err
				}
				exMu.Lock()
				executed[i] = resp.ExecutedInstructions
				exMu.Unlock()
			}
			return nil
		}}
	})
	rss, err := vmHWM(r.pid())
	if err != nil {
		return nil, err
	}
	if lr.firstErr != nil {
		logf("first failure: %v", lr.firstErr)
	}
	logHalves(lr)
	after, err := cacheStats(c, r.url)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("cnnperfd_cache_hits_total"), delta("cnnperfd_cache_misses_total")
	logf("  replica cache in the measured phase: hit_ratio=%.4f evictions/request=%.2f (cache-size %d)",
		ratioF(hits, hits+misses), ratioF(delta("cnnperfd_cache_evictions_total"), float64(lr.attempted)), coldCacheSize)
	correct := len(executed) > 0
	for i, got := range executed {
		a, err := cnnperf.AnalyzePTX(context.Background(), kept[i], cnnperf.PTXOptions{TrainableParams: params}, cnnperf.DefaultConfig())
		same := err == nil && a.Report.Executed == got
		logf("  check: request %d executed_instructions %d equals in-process AnalyzePTX: %t", i, got, same)
		correct = correct && same
	}
	return endToEnd(e, setups, summarize(lr.lat, lr.elapsed, lr.attempted, lr.failed), rss, correct), nil
}

// sampleIndices picks n distinct request indices in [offset, offset+limit).
func sampleIndices(seed int64, n, limit, offset int) map[int]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int]bool, n)
	for _, i := range rng.Perm(limit)[:n] {
		out[offset+i] = true
	}
	return out
}

// cacheStats scrapes the analysis-cache counters from the replica's
// Prometheus /metrics.
func cacheStats(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return parseProm(string(b)), err
}
