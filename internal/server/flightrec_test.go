package server_test

// Integration tests for the replica's flight recorder: a traced predict
// lands in /debug/flightrecorder with the propagated trace identity and
// the full span taxonomy, the endpoint is gated by config, and the
// recorder never perturbs response bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

func TestFlightRecorderEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{
		// A nanosecond slow threshold retains every request in the tail
		// ring, making capture deterministic.
		FlightRecorder: obs.FlightRecorderConfig{SlowThreshold: time.Nanosecond, Seed: 1},
	})
	model := zoo.Names()[0]
	body := fmt.Sprintf(`{"model":%q,"gpus":[%q]}`, model, gpu.TrainingGPUs[0])

	// Warm the analysis cache first: the cold-start trace runs the whole
	// pipeline (thousands of spans, truncated by the span limit); the
	// warm trace that follows is the small steady-state shape a p99
	// investigation actually reads.
	if code, raw := postJSON(t, ts.URL+"/v1/predict", body); code != http.StatusOK {
		t.Fatalf("warmup predict: status %d: %s", code, raw)
	}

	const wire = "00-11111111111111111111111111111111-2222222222222222-01"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, wire)
	req.Header.Set("X-Request-ID", "fr-test-1")
	resp, raw := doRequest(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, raw)
	}

	// Both requests were retained (everything trips the 1ns threshold);
	// the traced one continues the caller's trace identity.
	traces := srv.FlightRecorder().Traces()
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2: %+v", len(traces), traces)
	}
	tr := traces[1]
	if tr.TraceID != "11111111111111111111111111111111" {
		t.Errorf("retained trace id %s, want the propagated one", tr.TraceID)
	}
	if tr.Reason != "slow" || tr.Endpoint != "predict" || tr.RequestID != "fr-test-1" || tr.Status != 200 {
		t.Errorf("retained trace meta %+v", tr)
	}
	if tr.Spans != 4 { // srv.predict, srv.batch, features, predict
		t.Errorf("warm trace has %d spans, want 4", tr.Spans)
	}

	// The debug endpoint serves the retained traces as one valid Chrome
	// document; filtered to the propagated ID it holds the warm-request
	// taxonomy hung off the remote root.
	dreq, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/debug/flightrecorder?trace=11111111111111111111111111111111", nil)
	dresp, dump := doRequest(t, dreq)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrecorder: status %d", dresp.StatusCode)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	names, err := obs.ValidateChromeTrace(dump)
	if err != nil {
		t.Fatalf("dump invalid: %v\n%s", err, dump)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"srv.predict", "srv.batch", "features", "predict"} {
		if !seen[want] {
			t.Errorf("dump missing span %q (has %v)", want, names)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatal(err)
	}
	warmBatches := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "srv.batch" {
			warmBatches++
			if ev.Args["memo_hit"] != true {
				t.Errorf("warm srv.batch memo_hit arg %v, want true", ev.Args["memo_hit"])
			}
		}
		if ev.Name == "srv.predict" {
			if ev.Args["trace_id"] != "11111111111111111111111111111111" {
				t.Errorf("root trace_id arg %v", ev.Args["trace_id"])
			}
			if ev.Args["parent_span_id"] != "2222222222222222" {
				t.Errorf("root parent_span_id arg %v, want the remote caller", ev.Args["parent_span_id"])
			}
			if ev.Args["fr_reason"] != "slow" || ev.Args["fr_request_id"] != "fr-test-1" {
				t.Errorf("root fr_* args %v", ev.Args)
			}
		}
	}

	if warmBatches != 1 {
		t.Errorf("warm trace has %d srv.batch events, want 1", warmBatches)
	}

	// The unfiltered dump (both traces) validates too; a foreign trace
	// ID yields a valid-but-span-free document.
	areq, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/flightrecorder", nil)
	_, all := doRequest(t, areq)
	if _, err := obs.ValidateChromeTrace(all); err != nil {
		t.Fatalf("unfiltered dump invalid: %v", err)
	}
	// Besides the warm request's memo hit, the dump holds the warm-up's
	// srv.batch, which missed the memo and ran the analysis.
	doc.TraceEvents = nil
	if err := json.Unmarshal(all, &doc); err != nil {
		t.Fatal(err)
	}
	memoHits := map[any]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "srv.batch" {
			memoHits[ev.Args["memo_hit"]]++
		}
	}
	if memoHits[true] != 1 || memoHits[false] != 1 || len(memoHits) != 2 {
		t.Errorf("srv.batch memo_hit args across both traces %v, want one true and one false", memoHits)
	}
	oreq, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/debug/flightrecorder?trace=ffffffffffffffffffffffffffffffff", nil)
	_, other := doRequest(t, oreq)
	if bytes.Contains(other, []byte("srv.predict")) {
		t.Error("foreign-trace filter leaked spans")
	}

	// The fr_* metric families are live on /metrics.
	text := scrapePrometheus(t, ts.URL, "", "")
	if !bytes.Contains([]byte(text), []byte("cnnperfd_fr_requests_total")) {
		t.Error("cnnperfd_fr_requests_total missing from /metrics")
	}
	if !bytes.Contains([]byte(text), []byte("cnnperfd_fr_retained_slow_total 2")) {
		t.Error("retained-slow counter did not record both captures")
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{DisableFlightRecorder: true})
	if srv.FlightRecorder() != nil {
		t.Fatal("recorder built despite DisableFlightRecorder")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/flightrecorder", nil)
	resp, _ := doRequest(t, req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/flightrecorder while disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestFlightRecorderByteIdentity extends the determinism guard to the
// recorder: responses with the always-on recorder (plus an inbound
// traceparent) are byte-identical to a recorder-less server's.
func TestFlightRecorderByteIdentity(t *testing.T) {
	model := zoo.Names()[0]
	body := fmt.Sprintf(`{"model":%q,"gpus":[%q]}`, model, gpu.TrainingGPUs[0])

	_, off := newTestServer(t, server.Config{DisableFlightRecorder: true})
	_, on := newTestServer(t, server.Config{
		FlightRecorder: obs.FlightRecorderConfig{SlowThreshold: time.Nanosecond, Seed: 9},
	})

	codeOff, rawOff := postJSON(t, off.URL+"/v1/predict", body)
	req, _ := http.NewRequest(http.MethodPost, on.URL+"/v1/predict", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01")
	resp, rawOn := doRequest(t, req)
	if codeOff != http.StatusOK || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status: off=%d on=%d", codeOff, resp.StatusCode)
	}
	if !bytes.Equal(rawOff, rawOn) {
		t.Fatalf("flight recorder changed the prediction bytes:\noff: %s\non:  %s", rawOff, rawOn)
	}

	// Repeat traffic keeps recycling pooled tracers without disturbing
	// responses (the capture path is warm after the first request).
	for i := 0; i < 5; i++ {
		code, raw := postJSON(t, on.URL+"/v1/predict", body)
		if code != http.StatusOK || !bytes.Equal(raw, rawOff) {
			t.Fatalf("request %d: status %d, bytes changed", i, code)
		}
	}
}
