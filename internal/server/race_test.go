package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnnperf/internal/server"
)

// waitForGoroutines polls until the goroutine count drops back near the
// pre-test level or the deadline hits.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentPredictHammer fires many goroutines of mixed valid and
// invalid payloads at /v1/predict, then checks every response was
// well-formed, nothing panicked, no goroutines leaked, and the cache
// counters obey their invariants. Run under -race this is the
// data-race gate for the whole serving path.
func TestConcurrentPredictHammer(t *testing.T) {
	before := runtime.NumGoroutine()
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	payloads := []struct {
		body   string
		wantOK bool
	}{
		{`{"model":"alexnet","gpus":["gtx1080ti"]}`, true},
		{`{"model":"mobilenet","gpus":["v100s"]}`, true},
		{`{"model":"squeezenet","gpus":["gtx1080ti","v100s"]}`, true},
		{`{"model":"alexnet","gpus":["gtx1080ti","v100s"]}`, true},
		{`{"ptx":` + mustQuote(testPTX) + `,"gpus":["v100s"]}`, true},
		{`{"model":"notanet","gpus":["gtx1080ti"]}`, false},
		{`{"model":"alexnet","gpus":["nope"]}`, false},
		{`{"broken json`, false},
		{`{"ptx":"garbage","gpus":["gtx1080ti"]}`, false},
		{`{"gpus":["gtx1080ti"]}`, false},
	}

	const goroutines = 8
	const perG = 10
	var ok2xx, okErr, unexpected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := payloads[(g+i)%len(payloads)]
				resp, err := client.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(p.body))
				if err != nil {
					unexpected.Add(1)
					t.Errorf("g%d req%d: %v", g, i, err)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if p.wantOK {
					if resp.StatusCode != http.StatusOK {
						unexpected.Add(1)
						t.Errorf("g%d req%d: status %d: %s", g, i, resp.StatusCode, raw)
						continue
					}
					var pr server.PredictResponse
					if err := json.Unmarshal(raw, &pr); err != nil || len(pr.Predictions) == 0 {
						unexpected.Add(1)
						t.Errorf("g%d req%d: bad success body: %v %s", g, i, err, raw)
						continue
					}
					ok2xx.Add(1)
				} else {
					if resp.StatusCode < 400 || resp.StatusCode >= 500 {
						unexpected.Add(1)
						t.Errorf("g%d req%d: invalid payload got status %d: %s", g, i, resp.StatusCode, raw)
						continue
					}
					var env server.ErrorEnvelope
					if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
						unexpected.Add(1)
						t.Errorf("g%d req%d: bad error body: %v %s", g, i, err, raw)
						continue
					}
					okErr.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := ok2xx.Load(); n == 0 {
		t.Fatal("no successful predictions in the hammer run")
	}
	if n := okErr.Load(); n == 0 {
		t.Fatal("no error envelopes in the hammer run")
	}

	if n := promValue(t, scrapePrometheus(t, ts.URL, "", ""), "cnnperfd_panics_total"); n != 0 {
		t.Fatalf("handlers panicked %v times", n)
	}
	// Cache invariants: the distinct successful units were computed at
	// least once each (misses > 0), repeats were shared (hits > 0), and
	// the entry count can never exceed total misses.
	cs := s.CacheStats()
	if cs.Misses == 0 || cs.Hits == 0 {
		t.Fatalf("cache counters implausible after hammering: %+v", cs)
	}
	if uint64(cs.Entries) > cs.Misses {
		t.Fatalf("cache entries %d exceed misses %d", cs.Entries, cs.Misses)
	}
	if cs.HitRate() <= 0 || cs.HitRate() >= 1 {
		t.Fatalf("hit rate out of (0,1): %+v", cs)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	client.CloseIdleConnections()
	waitForGoroutines(t, before)
}

// TestSingleflightCoalescing releases a burst of concurrent identical
// cold predicts: the cache's singleflight must make them share one
// analysis on one pool worker, and every request must get the same
// bytes.
func TestSingleflightCoalescing(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 4})
	tasks, _ := analysisWork(t, ts.URL)

	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, raw := postJSONQuiet(ts.URL+"/v1/predict", `{"model":"alexnet","gpus":["gtx1080ti"]}`)
			if code != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", code, raw)
			}
			bodies[i] = raw
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("coalesced response %d differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
	if after, _ := analysisWork(t, ts.URL); after != tasks+1 {
		t.Errorf("burst of %d identical predicts ran %v pool tasks, want 1", n, after-tasks)
	}
}

// TestCancelledLeaderKeepsFollower cancels the first of two identical
// cold predicts while its analysis runs. The cancelled client gets 499
// at once, but the detached analysis keeps going: the second request,
// waiting on the same singleflight, gets 200, and a third is a memo hit.
func TestCancelledLeaderKeepsFollower(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 2})
	const body = `{"model":"vgg16","gpus":["gtx1080ti"]}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		leader <- rec.Code
	}()
	waitForMetric(t, ts.URL, "cnnperfd_pool_active_workers", 1)

	waits := promValue(t, scrapePrometheus(t, ts.URL, "", ""), "cnnperfd_cache_waits_total")
	type result struct {
		code int
		body []byte
	}
	follower := make(chan result, 1)
	go func() {
		code, raw := postJSONQuiet(ts.URL+"/v1/predict", body)
		follower <- result{code, raw}
	}()
	waitForMetric(t, ts.URL, "cnnperfd_cache_waits_total", waits+1)

	cancel()
	select {
	case code := <-leader:
		if code != 499 {
			t.Errorf("cancelled leader got status %d, want 499", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled leader was not answered")
	}
	res := <-follower
	if res.code != http.StatusOK {
		t.Fatalf("follower of a cancelled leader got status %d: %s", res.code, res.body)
	}

	tasks, misses := analysisWork(t, ts.URL)
	code, raw := postJSON(t, ts.URL+"/v1/predict", body)
	if code != http.StatusOK || !bytes.Equal(raw, res.body) {
		t.Errorf("memoized repeat: status %d, body differs %v", code, !bytes.Equal(raw, res.body))
	}
	if gotTasks, gotMisses := analysisWork(t, ts.URL); gotTasks != tasks || gotMisses != misses {
		t.Errorf("repeat after a cancelled leader was not a memo hit: pool tasks %v -> %v, cache misses %v -> %v",
			tasks, gotTasks, misses, gotMisses)
	}
}

// waitForMetric polls /metrics until series reaches at least want.
func waitForMetric(t *testing.T, baseURL, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for promValue(t, scrapePrometheus(t, baseURL, "", ""), series) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v", series, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGracefulShutdown proves the drain contract: a request in flight
// when draining begins completes with 200, while a request arriving
// after draining begins gets 503.
func TestGracefulShutdown(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Launch a cold-cache prediction (slow enough to still be in flight
	// when we start draining).
	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		code, raw := postJSONQuiet(ts.URL+"/v1/predict", `{"model":"vgg16","gpus":["gtx1080ti"]}`)
		inflight <- result{code, raw}
	}()

	// Wait until the request is actually in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The scrape counts itself, so the predict makes it two.
		if promValue(t, scrapePrometheus(t, ts.URL, "", ""), "cnnperfd_in_flight_requests") >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the gate flip

	// A late request must be refused with the draining envelope.
	code, raw := postJSONQuiet(ts.URL+"/v1/predict", `{"model":"alexnet","gpus":["gtx1080ti"]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("late request status %d, want 503: %s", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "draining" {
		t.Fatalf("late request envelope: %v %s", err, raw)
	}

	// The in-flight request completes normally.
	select {
	case res := <-inflight:
		if res.code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d: %s", res.code, res.body)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish after in-flight completion")
	}
}

// TestRequestTimeout gives the server a deadline far too small for a
// cold prediction and requires the structured timeout envelope.
func TestRequestTimeout(t *testing.T) {
	s := server.New(server.Config{Workers: 2, Timeout: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		s.Close()
	}()
	code, raw := postJSONQuiet(ts.URL+"/v1/predict", `{"model":"resnet50","gpus":["gtx1080ti"]}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("timeout body is not an envelope: %v %s", err, raw)
	}
	if env.Error.Code != "timeout" {
		t.Fatalf("timeout envelope code %q: %s", env.Error.Code, raw)
	}
}

// postJSONQuiet is postJSON without the test helper dependency, for
// goroutines.
func postJSONQuiet(url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}
