package gateway_test

// Test infrastructure for the chaos and hammer suites: controllable
// stub backends that speak just enough of the cnnperfd surface
// (/v1/predict, /v1/lint, /healthz) to exercise every gateway failure
// path cheaply and deterministically. The byte-identity suite in
// topology_test.go uses real server replicas instead.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnnperf/internal/gateway"
)

// Canonical stub error bodies: tests assert these exact bytes come
// back through the gateway to prove verbatim forwarding.
const (
	drainEnvelope  = `{"error":{"code":"draining","message":"server is shutting down"}}`
	badreqEnvelope = `{"error":{"code":"bad_request","message":"stub rejected it"}}`
)

// stub is one fake backend with a switchable failure mode.
type stub struct {
	name string
	ts   *httptest.Server

	mode      atomic.Value // "ok" | "slow" | "slowbody" | "hang" | "drain503" | "badreq"
	slowFor   atomic.Int64 // nanoseconds, for "slow" and "slowbody"
	healthyOK atomic.Bool  // /healthz answers 200 when true

	requests atomic.Int64 // proxied API requests served (not probes)
	hangs    atomic.Int64 // requests currently parked in "hang"
}

func newStub(name string) *stub {
	s := &stub{name: name}
	s.mode.Store("ok")
	s.healthyOK.Store(true)
	s.ts = httptest.NewServer(http.HandlerFunc(s.handle))
	return s
}

func (s *stub) url() string { return s.ts.URL }

func (s *stub) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		if s.healthyOK.Load() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"status":"ok"}`)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"status":"sick"}`)
		}
		return
	}
	s.requests.Add(1)
	body, _ := io.ReadAll(r.Body)
	switch s.mode.Load().(string) {
	case "hang":
		s.hangs.Add(1)
		defer s.hangs.Add(-1)
		<-r.Context().Done() // park until the gateway gives up
		return
	case "slow":
		time.Sleep(time.Duration(s.slowFor.Load()))
	case "drain503":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, drainEnvelope)
		return
	case "badreq":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, badreqEnvelope)
		return
	}
	// The response is a deterministic function of (backend, request
	// body): distinct payloads produce distinct bodies, and the same
	// payload always produces the same bytes from the same backend —
	// which is what lets tests prove affinity and verbatim forwarding.
	sum := sha256.Sum256(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if s.mode.Load().(string) == "slowbody" {
		// The headers go out at once; the body follows after a pause.
		w.(http.Flusher).Flush()
		time.Sleep(time.Duration(s.slowFor.Load()))
	}
	fmt.Fprintf(w, `{"ok":true,"backend":%q,"payload":%q}`, s.name, hex.EncodeToString(sum[:8]))
}

// chaosConfig is the fast-knob gateway config the chaos suite uses:
// tight probe/retry timing so failure handling is observable in
// milliseconds instead of seconds.
func chaosConfig(stubs []*stub) gateway.Config {
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.url()
	}
	return gateway.Config{
		Backends:        urls,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		FailThreshold:   2,
		ReviveThreshold: 2,
		RetryBudget:     3,
		RetryBackoff:    time.Millisecond,
		Timeout:         time.Second,
	}
}

// newChaosGateway boots a gateway over the stubs and tears everything
// down with the test.
func newChaosGateway(t *testing.T, stubs []*stub, mutate func(*gateway.Config)) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	cfg := chaosConfig(stubs)
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainGateway(t, gw)
		for _, s := range stubs {
			s.ts.Close()
		}
	})
	return gw, ts
}

func drainGateway(t *testing.T, gw *gateway.Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Errorf("gateway drain: %v", err)
	}
	gw.Close()
}

// bodyOwnedBy finds a predict payload whose routing key the given
// backend owns, so tests can aim traffic at a specific replica.
func bodyOwnedBy(t *testing.T, gw *gateway.Gateway, backend string) []byte {
	t.Helper()
	for i := 0; i < 4096; i++ {
		body := []byte(fmt.Sprintf(`{"model":"probe-net-%d","gpus":["gtx1080ti"]}`, i))
		key := gateway.RoutingKey("/v1/predict", body)
		if owner, ok := gw.Ring().Lookup(key); ok && owner == backend {
			return body
		}
	}
	t.Fatalf("no probe payload routes to %s", backend)
	return nil
}

// postBody POSTs one JSON payload and returns status, body, response.
func postBody(t *testing.T, url, path string, body []byte) (int, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp
}

// promScrape fetches the gateway /metrics and returns every sample
// keyed by its full series text ("name{labels}"), plus the raw text.
func promScrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePromText(t, string(raw)), string(raw)
}

// promScrapeRegistry reads the same samples straight off the registry,
// for tests that run after the HTTP surface has been drained.
func promScrapeRegistry(t *testing.T, gw *gateway.Gateway) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	if err := gw.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return parsePromText(t, buf.String())
}

func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			continue
		}
		samples[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// promFamilySum totals every series of one metric family.
func promFamilySum(samples map[string]float64, family string) float64 {
	total := 0.0
	for series, v := range samples {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForGoroutines polls until the goroutine count returns near the
// pre-test level (leak check for the hammer suites).
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
