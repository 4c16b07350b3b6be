package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
	"cnnperf/internal/gpu"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// newTestServer builds a server plus an httptest front end and tears
// both down (drain, close) with the test.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("GET %s: bad JSON %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var body struct {
		Status string `json:"status"`
		Models int    `json:"models"`
		GPUs   int    `json:"gpus"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body.Status != "ok" || body.Models == 0 || body.GPUs == 0 {
		t.Fatalf("unexpected healthz body: %+v", body)
	}
}

// TestPredictZooGolden serves every zoo model on both training GPUs and
// checks (a) the IPC matches the CLI prediction path (the same core
// entry points `cnnperf predict` calls) bit-for-bit, (b) a repeated
// request returns a byte-identical body, and (c) the second request is
// answered from the cache.
func TestPredictZooGolden(t *testing.T) {
	models := zoo.Names()
	if testing.Short() || raceEnabled {
		// The full-zoo sweep is minutes of work; under the race
		// detector's instrumentation it would blow the package timeout,
		// and the race gate only needs the serving machinery, not every
		// topology.
		models = models[:4]
	}
	gpus := append([]string(nil), gpu.TrainingGPUs...)
	_, ts := newTestServer(t, server.Config{})

	// The expected side runs the exact CLI path with its own cache; the
	// determinism harness guarantees caching does not change results.
	cfg := core.DefaultConfig()
	cfg.Cache = analysiscache.New(0)

	for _, model := range models {
		reqBody := fmt.Sprintf(`{"model":%q,"gpus":["%s","%s"]}`, model, gpus[0], gpus[1])
		code, first := postJSON(t, ts.URL+"/v1/predict", reqBody)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, code, first)
		}
		var got server.PredictResponse
		if err := json.Unmarshal(first, &got); err != nil {
			t.Fatalf("%s: bad JSON: %v", model, err)
		}

		ctx := context.Background()
		est, err := core.LeaveOneOutEstimatorContext(ctx, model, cfg)
		if err != nil {
			t.Fatalf("%s: CLI-path estimator: %v", model, err)
		}
		a, err := core.AnalyzeCNNContext(ctx, model, cfg)
		if err != nil {
			t.Fatalf("%s: CLI-path analysis: %v", model, err)
		}
		want, err := core.PredictAnalyzedContext(ctx, est, a, gpus)
		if err != nil {
			t.Fatalf("%s: CLI-path prediction: %v", model, err)
		}
		if got.ExecutedInstructions != a.Report.Executed {
			t.Errorf("%s: executed_instructions %d, CLI path %d",
				model, got.ExecutedInstructions, a.Report.Executed)
		}
		if len(got.Predictions) != len(want) {
			t.Fatalf("%s: %d predictions, want %d", model, len(got.Predictions), len(want))
		}
		for i, p := range got.Predictions {
			if p.GPU != want[i].GPU || p.IPC != want[i].IPC {
				t.Errorf("%s on %s: served IPC %v, CLI path %v (bit-exact required)",
					model, want[i].GPU, p.IPC, want[i].IPC)
			}
			if math.IsNaN(p.IPC) || p.IPC <= 0 {
				t.Errorf("%s on %s: non-positive IPC %v", model, p.GPU, p.IPC)
			}
		}

		code, second := postJSON(t, ts.URL+"/v1/predict", reqBody)
		if code != http.StatusOK {
			t.Fatalf("%s: repeat status %d", model, code)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: repeated response differs:\n%s\nvs\n%s", model, first, second)
		}
	}
}

// TestPredictSecondRequestHitsCache is the acceptance invariant: on a
// fresh server, the second of two identical requests must be answered
// with cache hits.
func TestPredictSecondRequestHitsCache(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	body := `{"model":"alexnet","gpus":["gtx1080ti"]}`
	if code, raw := postJSON(t, ts.URL+"/v1/predict", body); code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, raw)
	}
	before := s.CacheStats()
	if code, raw := postJSON(t, ts.URL+"/v1/predict", body); code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", code, raw)
	}
	after := s.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("second identical request did not hit the cache: before %+v after %+v", before, after)
	}
	if after.HitRate() <= 0 {
		t.Fatalf("hit rate not positive after repeat: %+v", after)
	}
}

// analysisWork scrapes the two counters that move only when a predict
// runs analysis: pool tasks completed and analysis-cache misses.
func analysisWork(t *testing.T, baseURL string) (tasks, misses float64) {
	t.Helper()
	text := scrapePrometheus(t, baseURL, "", "")
	return promValue(t, text, "cnnperfd_pool_tasks_completed_total"),
		promValue(t, text, "cnnperfd_cache_misses_total")
}

// TestMemoizedPredictRunsNoPoolTask checks that a repeat of a memoized
// predict is answered byte-identical from the memo without taking a
// worker, while a payload the lint gate rejects is never memoized: each
// of its repeats runs exactly one pool task and gets the same 422
// envelope.
func TestMemoizedPredictRunsNoPoolTask(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	body := `{"model":"alexnet","gpus":["gtx1080ti"]}`
	code, first := postJSON(t, ts.URL+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("first predict: status %d: %s", code, first)
	}
	tasks, misses := analysisWork(t, ts.URL)
	if tasks != 1 {
		t.Errorf("cold predict ran %v pool tasks, want 1", tasks)
	}
	code, second := postJSON(t, ts.URL+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("repeat predict: status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("memoized response differs:\n%s\nvs\n%s", first, second)
	}
	if gotTasks, gotMisses := analysisWork(t, ts.URL); gotTasks != tasks || gotMisses != misses {
		t.Errorf("memoized predict ran analysis: pool tasks %v -> %v, cache misses %v -> %v",
			tasks, gotTasks, misses, gotMisses)
	}

	// A kernel reading an undefined register fails the lint gate.
	bad := ".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nadd.s32 %r1, %r2, 1;\nret;\n}\n"
	badBody := `{"ptx":` + mustQuote(bad) + `,"gpus":["gtx1080ti"]}`
	var envelopes [2][]byte
	for i := range envelopes {
		before, _ := analysisWork(t, ts.URL)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(badBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "memo-reject") // same id, so the bodies can match
		resp, raw := doRequest(t, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("rejected payload %d: status %d, want 422: %s", i, resp.StatusCode, raw)
		}
		var env server.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "analysis_failed" ||
			!strings.Contains(env.Error.Message, "rejected by static analysis") {
			t.Fatalf("rejected payload %d: envelope %v %s", i, err, raw)
		}
		if after, _ := analysisWork(t, ts.URL); after != before+1 {
			t.Errorf("rejected payload %d ran %v pool tasks, want 1", i, after-before)
		}
		envelopes[i] = raw
	}
	if !bytes.Equal(envelopes[0], envelopes[1]) {
		t.Errorf("repeated rejection differs:\n%s\nvs\n%s", envelopes[0], envelopes[1])
	}
}

// TestPTXDefaultLaunchSharesUnit checks that a raw-PTX predict without
// a launch shape and one naming the default shape (2 blocks of 32
// threads) are one unit: one content key, and the second request is a
// memo hit that runs no analysis.
func TestPTXDefaultLaunchSharesUnit(t *testing.T) {
	implicit := server.PredictRequest{PTX: testPTX, GPUs: []string{"gtx1080ti"}}
	explicit := implicit
	explicit.GridX, explicit.BlockX = 2, 32
	if implicit.ContentKey() != explicit.ContentKey() {
		t.Errorf("default launch shape changes the content key")
	}

	_, ts := newTestServer(t, server.Config{})
	post := func(req server.PredictRequest) []byte {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, raw := postJSON(t, ts.URL+"/v1/predict", string(b))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		return raw
	}
	first := post(implicit)
	tasks, misses := analysisWork(t, ts.URL)
	second := post(explicit)
	if !bytes.Equal(first, second) {
		t.Errorf("explicit default launch answers differently:\n%s\nvs\n%s", first, second)
	}
	if gotTasks, gotMisses := analysisWork(t, ts.URL); gotTasks != tasks || gotMisses != misses {
		t.Errorf("explicit default launch missed the memo: pool tasks %v -> %v, cache misses %v -> %v",
			tasks, gotTasks, misses, gotMisses)
	}
}

const testPTX = `.version 6.0
.target sm_61
.address_size 64
.visible .entry k(
.param .u64 k_param_0
)
{
mov.u32 %r1, 0;
LOOP:
add.s32 %r1, %r1, 1;
setp.lt.s32 %p1, %r1, 16;
@%p1 bra LOOP;
ret;
}
`

func TestPredictRawPTX(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, err := json.Marshal(server.PredictRequest{
		PTX:             testPTX,
		TrainableParams: 1000,
		GPUs:            []string{"gtx1080ti", "v100s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, first := postJSON(t, ts.URL+"/v1/predict", string(req))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	var got server.PredictResponse
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}
	if got.ExecutedInstructions <= 0 {
		t.Errorf("executed_instructions = %d, want > 0 (the loop runs 16 times)", got.ExecutedInstructions)
	}
	if got.TrainableParams != 1000 {
		t.Errorf("trainable_params = %d, want 1000", got.TrainableParams)
	}
	if len(got.Predictions) != 2 {
		t.Fatalf("predictions = %d, want 2", len(got.Predictions))
	}
	for _, p := range got.Predictions {
		if p.IPC <= 0 {
			t.Errorf("%s: non-positive IPC %v", p.GPU, p.IPC)
		}
	}
	_, second := postJSON(t, ts.URL+"/v1/predict", string(req))
	if !bytes.Equal(first, second) {
		t.Errorf("repeated PTX response differs:\n%s\nvs\n%s", first, second)
	}
}

func TestPredictErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxBodyBytes: 4096})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"malformed_json", `{"model":`, http.StatusBadRequest, "bad_request"},
		{"empty_body", ``, http.StatusBadRequest, "bad_request"},
		{"neither_model_nor_ptx", `{"gpus":["gtx1080ti"]}`, http.StatusBadRequest, "bad_request"},
		{"both_model_and_ptx", `{"model":"alexnet","ptx":"x","gpus":["gtx1080ti"]}`, http.StatusBadRequest, "bad_request"},
		{"no_gpus", `{"model":"alexnet"}`, http.StatusBadRequest, "bad_request"},
		{"unknown_gpu", `{"model":"alexnet","gpus":["quantum9000"]}`, http.StatusNotFound, "unknown_gpu"},
		{"unknown_model", `{"model":"notanet","gpus":["gtx1080ti"]}`, http.StatusNotFound, "unknown_model"},
		{"bad_grid", `{"ptx":"x","grid_x":99999,"gpus":["gtx1080ti"]}`, http.StatusBadRequest, "bad_request"},
		{"negative_params", `{"ptx":"x","trainable_params":-1,"gpus":["gtx1080ti"]}`, http.StatusBadRequest, "bad_request"},
		{"unparseable_ptx", `{"ptx":"garbage line","gpus":["gtx1080ti"]}`, http.StatusUnprocessableEntity, "analysis_failed"},
		{"oversized_body", `{"ptx":"` + strings.Repeat("x", 8192) + `","gpus":["gtx1080ti"]}`, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postJSON(t, ts.URL+"/v1/predict", tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d: %s", code, tc.wantCode, raw)
			}
			var env server.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body is not an envelope: %v\n%s", err, raw)
			}
			if env.Error.Code != tc.wantErr {
				t.Errorf("error code %q, want %q (message %q)", env.Error.Code, tc.wantErr, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	code, raw := postJSON(t, ts.URL+"/v1/lint", `{"model":"alexnet"}`)
	if code != http.StatusOK {
		t.Fatalf("model lint status %d: %s", code, raw)
	}
	var res server.LintResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Target != "alexnet" || res.ErrorCount != 0 {
		t.Fatalf("unexpected model lint result: %+v", res)
	}

	// A kernel reading an undefined register must produce an
	// error-severity diagnostic.
	bad := ".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nadd.s32 %r1, %r2, 1;\nret;\n}\n"
	code, raw = postJSON(t, ts.URL+"/v1/lint", `{"ptx":`+mustQuote(bad)+`}`)
	if code != http.StatusOK {
		t.Fatalf("ptx lint status %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.ErrorCount == 0 {
		t.Fatalf("use-before-def kernel produced no error diagnostics: %+v", res)
	}

	code, raw = postJSON(t, ts.URL+"/v1/lint", `{"ptx":"garbage line"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unparseable ptx lint status %d: %s", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "invalid_ptx" {
		t.Fatalf("unexpected lint error envelope: %v %s", err, raw)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if code, raw := postJSON(t, ts.URL+"/v1/predict", `{"model":"alexnet","gpus":["gtx1080ti"]}`); code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, raw)
	}
	postJSON(t, ts.URL+"/v1/predict", `{"bad json`)

	text := scrapePrometheus(t, ts.URL, "", "")
	for series, want := range map[string]float64{
		`cnnperfd_requests_total{endpoint="predict",code="2xx"}`:      1,
		`cnnperfd_requests_total{endpoint="predict",code="4xx"}`:      1,
		`cnnperfd_requests_total{endpoint="predict",code="5xx"}`:      0,
		`cnnperfd_request_duration_seconds_count{endpoint="predict"}`: 2,
		"cnnperfd_panics_total":                                       0,
	} {
		if got := promValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	for _, series := range []string{"cnnperfd_cache_misses_total", "cnnperfd_pool_tasks_completed_total", "cnnperfd_uptime_seconds"} {
		if got := promValue(t, text, series); got <= 0 {
			t.Errorf("%s = %v, want > 0", series, got)
		}
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	code, raw := postJSON(t, ts.URL+"/v2/everything", `{}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown route status %d: %s", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("unknown route envelope: %v %s", err, raw)
	}
	var methodEnv server.ErrorEnvelope
	if code := getJSON(t, ts.URL+"/v1/predict", &methodEnv); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict status %d, want 405", code)
	}
	if methodEnv.Error.Code != "method_not_allowed" {
		t.Fatalf("405 envelope code %q", methodEnv.Error.Code)
	}
}

func mustQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}
