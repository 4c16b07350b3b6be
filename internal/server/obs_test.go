package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// lockedBuffer makes a bytes.Buffer safe to share between the server's
// logger (deferred access-log writes can outlive the response) and the
// test's assertions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func doRequest(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestRequestIDMiddleware covers the three request-ID paths: a valid
// inbound X-Request-ID is honored and echoed, a missing or malformed
// one is replaced with a generated id, and error envelopes carry the
// id so clients can correlate failures with access-log lines.
func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	t.Run("inbound honored", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", "client-id_01.A")
		resp, _ := doRequest(t, req)
		if got := resp.Header.Get("X-Request-ID"); got != "client-id_01.A" {
			t.Fatalf("inbound request id not echoed: got %q", got)
		}
	})

	t.Run("generated when absent", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		resp, _ := doRequest(t, req)
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID generated")
		}
		for _, c := range id {
			switch {
			case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '.', c == '_', c == '-':
			default:
				t.Fatalf("generated id %q has invalid character %q", id, c)
			}
		}
	})

	t.Run("malformed replaced", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", "spaces are invalid")
		resp, _ := doRequest(t, req)
		id := resp.Header.Get("X-Request-ID")
		if id == "" || id == "spaces are invalid" {
			t.Fatalf("malformed inbound id not replaced: got %q", id)
		}
	})

	t.Run("error envelope carries id", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader("{not json"))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "err-corr-1")
		resp, raw := doRequest(t, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var env struct {
			Error struct {
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("bad error envelope: %v\n%s", err, raw)
		}
		if env.Error.RequestID != "err-corr-1" {
			t.Fatalf("error envelope request_id = %q, want err-corr-1\n%s", env.Error.RequestID, raw)
		}
	})
}

// TestMetricsContentNegotiation pins that /metrics no longer
// negotiates: a plain scrape, an Accept header, the ?format=prometheus
// override existing scrapers send, and the retired ?format=json all get
// the same valid Prometheus text exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, tc := range []struct{ name, query, accept string }{
		{"plain", "", ""},
		{"accept header", "", "text/plain"},
		{"format override", "?format=prometheus", ""},
		{"retired json format", "?format=json", "application/json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := scrapePrometheus(t, ts.URL, tc.query, tc.accept)
			for _, want := range []string{
				"cnnperfd_requests_total", "cnnperfd_request_duration_seconds_bucket",
				"cnnperfd_cache_hits_total", "cnnperfd_pool_workers", "cnnperfd_uptime_seconds",
				"cnnperfd_absint_iterations",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("exposition missing %s", want)
				}
			}
		})
	}
}

// TestPprofGate verifies the profiling surface is opt-in: absent the
// flag the routes do not exist, with it they serve pprof indexes.
func TestPprofGate(t *testing.T) {
	t.Run("disabled by default", func(t *testing.T) {
		_, ts := newTestServer(t, server.Config{})
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/", nil)
		resp, _ := doRequest(t, req)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/debug/pprof/ without -pprof: status %d, want 404", resp.StatusCode)
		}
	})
	t.Run("enabled by flag", func(t *testing.T) {
		_, ts := newTestServer(t, server.Config{EnablePprof: true})
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
			resp, _ := doRequest(t, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s with -pprof: status %d, want 200", path, resp.StatusCode)
			}
		}
	})
}

// TestObservabilityDeterminism is the guard the golden test relies on:
// turning on every observability feature at once (structured access
// logs at debug level, slow-request warnings on every request, pprof
// routes) must not change a single byte of the prediction response.
// The ?debug=1 block is the one sanctioned exception and must stay
// strictly opt-in.
func TestObservabilityDeterminism(t *testing.T) {
	model := zoo.Names()[0]
	gpuName := gpu.TrainingGPUs[0]
	body := fmt.Sprintf(`{"model":%q,"gpus":[%q]}`, model, gpuName)

	_, plain := newTestServer(t, server.Config{})

	logBuf := &lockedBuffer{}
	_, instrumented := newTestServer(t, server.Config{
		Logger:      obs.NewLogger(logBuf, obs.LevelDebug),
		SlowRequest: time.Nanosecond, // every request trips the slow path
		EnablePprof: true,
	})

	codePlain, rawPlain := postJSON(t, plain.URL+"/v1/predict", body)
	codeInst, rawInst := postJSON(t, instrumented.URL+"/v1/predict", body)
	if codePlain != http.StatusOK || codeInst != http.StatusOK {
		t.Fatalf("predict status: plain=%d instrumented=%d\n%s\n%s", codePlain, codeInst, rawPlain, rawInst)
	}
	if !bytes.Equal(rawPlain, rawInst) {
		t.Fatalf("observability changed the prediction bytes:\nplain:        %s\ninstrumented: %s", rawPlain, rawInst)
	}
	if bytes.Contains(rawInst, []byte(`"debug"`)) {
		t.Fatalf("debug block present without ?debug=1:\n%s", rawInst)
	}

	// ?debug=1 adds the stage breakdown but leaves the prediction
	// fields untouched.
	codeDbg, rawDbg := postJSON(t, instrumented.URL+"/v1/predict?debug=1", body)
	if codeDbg != http.StatusOK {
		t.Fatalf("debug predict status %d\n%s", codeDbg, rawDbg)
	}
	var withDbg struct {
		Predictions json.RawMessage `json:"predictions"`
		Debug       *struct {
			Stages []struct {
				Stage   string  `json:"stage"`
				Seconds float64 `json:"seconds"`
			} `json:"stages"`
		} `json:"debug"`
	}
	if err := json.Unmarshal(rawDbg, &withDbg); err != nil {
		t.Fatalf("bad debug response: %v\n%s", err, rawDbg)
	}
	if withDbg.Debug == nil || len(withDbg.Debug.Stages) == 0 {
		t.Fatalf("?debug=1 returned no stage breakdown:\n%s", rawDbg)
	}
	var plainResp struct {
		Predictions json.RawMessage `json:"predictions"`
	}
	if err := json.Unmarshal(rawPlain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainResp.Predictions, withDbg.Predictions) {
		t.Fatalf("?debug=1 changed prediction values:\nplain: %s\ndebug: %s", plainResp.Predictions, withDbg.Predictions)
	}

	// The instrumented server really did log: access lines with the
	// request id and a slow-request warning.
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"request"`) {
		t.Errorf("no access log lines emitted:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"slow request"`) {
		t.Errorf("no slow-request warning despite 1ns threshold:\n%s", logs)
	}
	if !strings.Contains(logs, `"request_id":`) {
		t.Errorf("access logs missing request_id:\n%s", logs)
	}
}
