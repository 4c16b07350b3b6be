package gateway_test

// The fault-injection suite: every gateway failure path — dead, hung,
// slow, draining and flapping backends — exercised against
// controllable stubs with millisecond probe/retry knobs, including one
// loadgen-driven kill-mid-load run proving zero dropped in-flight
// requests.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnnperf/internal/gateway"
	"cnnperf/internal/loadgen"
	"cnnperf/internal/server"
)

// TestGatewayContentKeyAffinity proves the sharding contract: the same
// payload always lands on the same backend (the ring owner), and the
// fleet as a whole sees every backend take traffic.
func TestGatewayContentKeyAffinity(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1"), newStub("b2")}
	gw, ts := newChaosGateway(t, stubs, nil)

	seen := make(map[string]bool)
	for i := 0; i < 30; i++ {
		body := []byte(fmt.Sprintf(`{"model":"aff-net-%d","gpus":["gtx1080ti"]}`, i))
		owner, ok := gw.Ring().Lookup(gateway.RoutingKey("/v1/predict", body))
		if !ok {
			t.Fatal("ring lookup failed")
		}
		var first []byte
		for rep := 0; rep < 3; rep++ {
			code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
			if code != http.StatusOK {
				t.Fatalf("payload %d rep %d: status %d: %s", i, rep, code, raw)
			}
			if got := resp.Header.Get("X-Gateway-Backend"); got != owner {
				t.Fatalf("payload %d served by %s, ring owner is %s", i, got, owner)
			}
			if first == nil {
				first = raw
			} else if string(raw) != string(first) {
				t.Fatalf("payload %d: repeat answers differ: %s vs %s", i, raw, first)
			}
			seen[resp.Header.Get("X-Gateway-Backend")] = true
		}
	}
	if len(seen) != len(stubs) {
		t.Errorf("30 distinct payloads reached only %d of %d backends", len(seen), len(stubs))
	}
}

// TestGatewayKilledBackendMidLoad is the headline chaos scenario: a
// backend dies (connections severed) in the middle of a sustained
// loadgen run, and not a single client request fails — in-flight
// requests retry onto survivors and the prober ejects the corpse.
func TestGatewayKilledBackendMidLoad(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1"), newStub("b2")}
	gw, ts := newChaosGateway(t, stubs, nil)

	var requests []loadgen.Request
	for i := 0; i < 40; i++ {
		requests = append(requests, loadgen.Request{
			Name: fmt.Sprintf("kill-%d", i),
			Path: "/v1/predict",
			Body: []byte(fmt.Sprintf(`{"model":"kill-net-%d","gpus":["gtx1080ti"]}`, i)),
		})
	}

	victim := stubs[1]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(300 * time.Millisecond)
		victim.ts.CloseClientConnections()
		victim.ts.Close()
	}()

	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Target:      ts.URL,
		Requests:    requests,
		Duration:    1500 * time.Millisecond,
		Concurrency: 8,
		Timeout:     10 * time.Second,
	})
	<-killed
	if err != nil {
		t.Fatalf("loadgen run: %v", err)
	}
	if res.Requests == 0 {
		t.Fatal("loadgen issued no requests")
	}
	if res.Errors() != 0 {
		t.Fatalf("killed backend leaked errors to clients: %d transport, %d non-2xx (statuses %v) over %d requests",
			res.TransportErrors, res.Non2xx, res.StatusCounts, res.Requests)
	}
	waitUntil(t, 5*time.Second, "victim ejection", func() bool {
		return !gw.Ring().Has(victim.url())
	})
	samples, _ := promScrape(t, ts.URL)
	if n := promFamilySum(samples, "cnnperfd_gw_ejections_total"); n < 1 {
		t.Errorf("ejections_total = %v, want >= 1", n)
	}
	if n := samples[fmt.Sprintf("cnnperfd_gw_backend_healthy{backend=%q}", victim.url())]; n != 0 {
		t.Errorf("backend_healthy for the victim = %v, want 0", n)
	}
}

// TestGatewayHungBackend checks the per-attempt deadline: a backend
// that accepts the connection and never answers burns one attempt at
// Timeout, then the request completes on the next ring candidate.
func TestGatewayHungBackend(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, func(c *gateway.Config) {
		c.Timeout = 200 * time.Millisecond
	})

	hung := stubs[0]
	body := bodyOwnedBy(t, gw, hung.url())
	hung.mode.Store("hang")

	start := time.Now()
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if got := resp.Header.Get("X-Gateway-Attempts"); got != "2" {
		t.Errorf("X-Gateway-Attempts = %q, want 2 (hung first attempt, healthy second)", got)
	}
	if got := resp.Header.Get("X-Gateway-Backend"); got != stubs[1].url() {
		t.Errorf("served by %s, want the healthy backend %s", got, stubs[1].url())
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("answered in %v, before the 200ms attempt deadline could have fired", elapsed)
	}
	samples, _ := promScrape(t, ts.URL)
	if n := samples[fmt.Sprintf("cnnperfd_gw_transport_errors_total{backend=%q}", hung.url())]; n < 1 {
		t.Errorf("transport_errors_total for hung backend = %v, want >= 1", n)
	}
	if n := promFamilySum(samples, "cnnperfd_gw_retries_total"); n < 1 {
		t.Errorf("retries_total = %v, want >= 1", n)
	}
	hung.mode.Store("ok")
}

// TestGatewaySlowBackend checks that slowness under the deadline is
// not a failure: one attempt, correct answer, no retries. That holds
// whether the backend is slow to answer at all ("slow") or sends its
// headers at once and its body after a pause ("slowbody").
func TestGatewaySlowBackend(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, nil)

	slow := stubs[0]
	body := bodyOwnedBy(t, gw, slow.url())
	slow.slowFor.Store(int64(80 * time.Millisecond))

	for _, mode := range []string{"slow", "slowbody"} {
		slow.mode.Store(mode)
		code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode, code, raw)
		}
		if got := resp.Header.Get("X-Gateway-Attempts"); got != "1" {
			t.Errorf("%s: X-Gateway-Attempts = %q, want 1 (slow is not broken)", mode, got)
		}
		if got := resp.Header.Get("X-Gateway-Backend"); got != slow.url() {
			t.Errorf("%s: served by %s, want the slow owner %s", mode, got, slow.url())
		}
	}
}

// TestGatewayAllBackendsDown checks the total-outage envelope: every
// attempt fails, the client gets a structured 503 no_backends with
// Retry-After, and once the prober ejects the whole fleet the answer
// comes straight from the empty ring.
func TestGatewayAllBackendsDown(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, nil)
	for _, s := range stubs {
		s.ts.CloseClientConnections()
		s.ts.Close()
	}

	body := []byte(`{"model":"alexnet","gpus":["gtx1080ti"]}`)
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("503 body is not an error envelope: %s", raw)
	}
	if env.Error.Code != "no_backends" {
		t.Errorf("error code %q, want no_backends", env.Error.Code)
	}

	waitUntil(t, 5*time.Second, "full-fleet ejection", func() bool {
		return gw.Ring().Size() == 0
	})
	code, raw, _ = postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring status %d, want 503: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "no_backends" {
		t.Errorf("empty-ring error code %q, want no_backends", env.Error.Code)
	}

	hzCode, hzRaw, _ := getBody(t, ts.URL, "/healthz")
	if hzCode != http.StatusServiceUnavailable {
		t.Errorf("gateway /healthz status %d with fleet down, want 503", hzCode)
	}
	var hz gateway.HealthzResponse
	if err := json.Unmarshal(hzRaw, &hz); err != nil {
		t.Fatalf("bad healthz body: %s", hzRaw)
	}
	if hz.Status != "down" || hz.RingSize != 0 {
		t.Errorf("healthz = %q ring %d, want down/0", hz.Status, hz.RingSize)
	}
	samples, _ := promScrape(t, ts.URL)
	if n := promFamilySum(samples, "cnnperfd_gw_no_backend_total"); n < 2 {
		t.Errorf("no_backend_total = %v, want >= 2", n)
	}
}

// TestGatewayDrainRetriedExactlyOnce is the satellite-3 contract: a
// 503 whose body is the server's draining envelope is re-routed to the
// next ring candidate exactly once; a second draining answer is
// forwarded to the client verbatim, never retried again.
func TestGatewayDrainRetriedExactlyOnce(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1"), newStub("b2")}
	gw, ts := newChaosGateway(t, stubs, nil)

	byURL := make(map[string]*stub)
	for _, s := range stubs {
		byURL[s.url()] = s
	}
	body := bodyOwnedBy(t, gw, stubs[0].url())
	seq := gw.Ring().Sequence(gateway.RoutingKey("/v1/predict", body), 3)
	first, second := byURL[seq[0]], byURL[seq[1]]

	// One draining replica: the request re-routes once and succeeds.
	first.mode.Store("drain503")
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d after one draining replica: %s", code, raw)
	}
	if got := resp.Header.Get("X-Gateway-Backend"); got != second.url() {
		t.Errorf("served by %s, want the drain successor %s", got, second.url())
	}
	if got := resp.Header.Get("X-Gateway-Attempts"); got != "2" {
		t.Errorf("X-Gateway-Attempts = %q, want 2", got)
	}
	samples, _ := promScrape(t, ts.URL)
	if n := promFamilySum(samples, "cnnperfd_gw_drain_retries_total"); n != 1 {
		t.Errorf("drain_retries_total = %v, want exactly 1", n)
	}

	// Every replica draining: one re-route is spent, the second
	// draining 503 is the client's answer, byte-for-byte.
	for _, s := range stubs {
		s.mode.Store("drain503")
	}
	code, raw, resp = postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with whole fleet draining, want 503: %s", code, raw)
	}
	if string(raw) != drainEnvelope {
		t.Errorf("draining 503 not forwarded verbatim:\n got %s\nwant %s", raw, drainEnvelope)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("backend Retry-After not forwarded: %q", got)
	}
	if got := resp.Header.Get("X-Gateway-Attempts"); got != "2" {
		t.Errorf("X-Gateway-Attempts = %q, want 2 (exactly one drain re-route)", got)
	}
	samples, _ = promScrape(t, ts.URL)
	if n := promFamilySum(samples, "cnnperfd_gw_drain_retries_total"); n != 2 {
		t.Errorf("drain_retries_total = %v, want exactly 2", n)
	}
	for _, s := range stubs {
		s.mode.Store("ok")
	}
}

// TestGatewayBackendErrorForwardedVerbatim checks that a backend's own
// 4xx is the client's answer — same status, same bytes, no retry (the
// gateway must never mask or duplicate replica validation).
func TestGatewayBackendErrorForwardedVerbatim(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, nil)

	bad := stubs[0]
	body := bodyOwnedBy(t, gw, bad.url())
	bad.mode.Store("badreq")
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want the backend's 400: %s", code, raw)
	}
	if string(raw) != badreqEnvelope {
		t.Errorf("400 body not verbatim:\n got %s\nwant %s", raw, badreqEnvelope)
	}
	if got := resp.Header.Get("X-Gateway-Attempts"); got != "1" {
		t.Errorf("X-Gateway-Attempts = %q, want 1 (4xx must not retry)", got)
	}
}

// TestGatewayEjectionReadmission walks the full health state machine:
// FailThreshold sick probes eject a backend from the ring, its keys
// fail over, ReviveThreshold healthy probes re-admit it, and its keys
// come home.
func TestGatewayEjectionReadmission(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, nil)

	sick := stubs[0]
	body := bodyOwnedBy(t, gw, sick.url())

	sick.healthyOK.Store(false)
	waitUntil(t, 5*time.Second, "ejection", func() bool {
		return !gw.Ring().Has(sick.url())
	})
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d during ejection: %s", code, raw)
	}
	if got := resp.Header.Get("X-Gateway-Backend"); got != stubs[1].url() {
		t.Errorf("ejected backend's keys served by %s, want survivor %s", got, stubs[1].url())
	}
	samples, _ := promScrape(t, ts.URL)
	if n := samples[fmt.Sprintf("cnnperfd_gw_ejections_total{backend=%q}", sick.url())]; n != 1 {
		t.Errorf("ejections_total = %v, want 1", n)
	}
	if n := samples[fmt.Sprintf("cnnperfd_gw_backend_healthy{backend=%q}", sick.url())]; n != 0 {
		t.Errorf("backend_healthy = %v during ejection, want 0", n)
	}

	sick.healthyOK.Store(true)
	waitUntil(t, 5*time.Second, "re-admission", func() bool {
		return gw.Ring().Has(sick.url())
	})
	code, raw, resp = postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d after re-admission: %s", code, raw)
	}
	if got := resp.Header.Get("X-Gateway-Backend"); got != sick.url() {
		t.Errorf("re-admitted backend's keys served by %s, want home %s", got, sick.url())
	}
	samples, _ = promScrape(t, ts.URL)
	if n := samples[fmt.Sprintf("cnnperfd_gw_readmissions_total{backend=%q}", sick.url())]; n != 1 {
		t.Errorf("readmissions_total = %v, want 1", n)
	}
	if n := samples[fmt.Sprintf("cnnperfd_gw_backend_healthy{backend=%q}", sick.url())]; n != 1 {
		t.Errorf("backend_healthy = %v after re-admission, want 1", n)
	}
	if n := promFamilySum(samples, "cnnperfd_gw_health_probes_total"); n < 4 {
		t.Errorf("health_probes_total = %v, want several rounds", n)
	}
}

// TestGatewayRemoveBackendGraceful checks operator-initiated drain:
// the backend leaves the ring immediately (new traffic re-routes), the
// in-flight request it was serving completes successfully, and
// RemoveBackend only returns once the backend is idle.
func TestGatewayRemoveBackendGraceful(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	gw, ts := newChaosGateway(t, stubs, nil)

	leaving := stubs[0]
	body := bodyOwnedBy(t, gw, leaving.url())
	leaving.mode.Store("slow")
	leaving.slowFor.Store(int64(400 * time.Millisecond))

	type answer struct {
		code    int
		body    string
		backend string
	}
	inflight := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(string(body)))
		if err != nil {
			inflight <- answer{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		inflight <- answer{resp.StatusCode, sb.String(), resp.Header.Get("X-Gateway-Backend")}
	}()
	waitUntil(t, 5*time.Second, "in-flight request to reach the leaving backend", func() bool {
		return leaving.requests.Load() >= 1
	})

	removeDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		removeDone <- gw.RemoveBackend(ctx, leaving.url())
	}()
	waitUntil(t, 5*time.Second, "ring removal", func() bool {
		return !gw.Ring().Has(leaving.url())
	})

	// While still draining: RemoveBackend blocks, new traffic for the
	// leaving backend's keys already routes to the survivor.
	select {
	case err := <-removeDone:
		t.Fatalf("RemoveBackend returned (%v) while an in-flight request was running", err)
	case <-time.After(50 * time.Millisecond):
	}
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("status %d during drain: %s", code, raw)
	}
	if got := resp.Header.Get("X-Gateway-Backend"); got != stubs[1].url() {
		t.Errorf("drained backend's keys served by %s, want survivor %s", got, stubs[1].url())
	}

	select {
	case err := <-removeDone:
		if err != nil {
			t.Fatalf("RemoveBackend: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RemoveBackend never returned after the in-flight request finished")
	}
	got := <-inflight
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d body %s", got.code, got.body)
	}
	if got.backend != leaving.url() {
		t.Errorf("in-flight request served by %s, want the draining backend %s", got.backend, leaving.url())
	}

	// The prober must never re-admit a drained backend.
	time.Sleep(100 * time.Millisecond) // several probe rounds
	if gw.Ring().Has(leaving.url()) {
		t.Error("prober re-admitted a drained backend")
	}
	hzCode, hzRaw, _ := getBody(t, ts.URL, "/healthz")
	if hzCode != http.StatusOK {
		t.Errorf("gateway /healthz status %d with one replica drained, want 200", hzCode)
	}
	var hz gateway.HealthzResponse
	if err := json.Unmarshal(hzRaw, &hz); err != nil {
		t.Fatalf("bad healthz body: %s", hzRaw)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status %q, want degraded", hz.Status)
	}
	for _, b := range hz.Backends {
		if b.URL == leaving.url() && (!b.Draining || b.InRing) {
			t.Errorf("healthz for drained backend: %+v, want draining and out of the ring", b)
		}
	}

	if err := gw.RemoveBackend(context.Background(), "http://never-registered:1"); err == nil {
		t.Error("RemoveBackend accepted an unknown backend")
	}
}

// TestGatewayDrainGate checks the gateway's own shutdown behaviour:
// after Drain, new requests get the structured draining 503.
func TestGatewayDrainGate(t *testing.T) {
	stubs := []*stub{newStub("b0")}
	gw, ts := newChaosGateway(t, stubs, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, raw, resp := postBody(t, ts.URL, "/v1/predict", []byte(`{"model":"alexnet","gpus":["gtx1080ti"]}`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after drain, want 503: %s", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "draining" {
		t.Errorf("post-drain error code %q, want draining (%s)", env.Error.Code, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	// The drained gateway gates /metrics too; read the registry directly.
	samples := promScrapeRegistry(t, gw)
	if n := promFamilySum(samples, "cnnperfd_gw_rejected_total"); n < 1 {
		t.Errorf("rejected_total = %v, want >= 1", n)
	}
}

// TestGatewayHTTPSurface covers the non-proxy surface: method and
// route errors, the body bound, and request-id echo.
func TestGatewayHTTPSurface(t *testing.T) {
	stubs := []*stub{newStub("b0")}
	_, ts := newChaosGateway(t, stubs, func(c *gateway.Config) {
		c.MaxBodyBytes = 256
	})

	code, raw, resp := getBody(t, ts.URL, "/v1/predict")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status %d, want 405 (%s)", code, raw)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}

	code, raw, _ = postBody(t, ts.URL, "/v1/nope", []byte(`{}`))
	if code != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404 (%s)", code, raw)
	}

	big := []byte(`{"ptx":"` + strings.Repeat("x", 1024) + `"}`)
	code, raw, _ = postBody(t, ts.URL, "/v1/predict", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", code, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "body_too_large" {
		t.Errorf("oversized-body code %q, want body_too_large", env.Error.Code)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(`{"model":"m","gpus":["g"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "chaos-rid-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "chaos-rid-42" {
		t.Errorf("X-Request-ID echo = %q, want chaos-rid-42", got)
	}
}

// panicTransport panics on the first proxied request once armed and
// serves every other request, health probes included, normally.
type panicTransport struct {
	*http.Transport
	armed atomic.Bool
}

func (p *panicTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/healthz" && p.armed.CompareAndSwap(true, false) {
		panic("transport exploded")
	}
	return p.Transport.RoundTrip(r)
}

// TestGatewayPanicContained checks the gateway's panic containment: a
// panic on the proxy path answers a 500 internal envelope carrying the
// request id, the same gateway goes on serving, and the panicking
// attempt gave back the backend's in-flight slot, so removing that
// backend does not wait for it.
func TestGatewayPanicContained(t *testing.T) {
	stubs := []*stub{newStub("b0")}
	tr := &panicTransport{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	tr.armed.Store(true)
	gw, ts := newChaosGateway(t, stubs, func(c *gateway.Config) { c.Transport = tr })
	body := `{"model":"alexnet","gpus":["gtx1080ti"]}`

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "panic-rid-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking proxy: status %d, want 500 (%s)", resp.StatusCode, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("500 body is not an error envelope: %v: %s", err, raw)
	}
	if env.Error.Code != "internal" || env.Error.RequestID != "panic-rid-7" ||
		env.Error.Message != "internal error: transport exploded" {
		t.Errorf("500 envelope = %+v, want code internal, request id panic-rid-7", env.Error)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "panic-rid-7" {
		t.Errorf("X-Request-ID = %q, want panic-rid-7", got)
	}

	code, raw, _ := postBody(t, ts.URL, "/v1/predict", []byte(body))
	if code != http.StatusOK || !strings.Contains(string(raw), `"backend":"b0"`) {
		t.Errorf("request after the panic: status %d body %s, want 200 from b0", code, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := gw.RemoveBackend(ctx, stubs[0].url()); err != nil {
		t.Errorf("RemoveBackend after the panic: %v (in-flight slot leaked)", err)
	}
}

// getBody issues a GET and returns status, body and response.
func getBody(t *testing.T, url, path string) (int, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, raw, resp
}

// TestGatewayClientCancelNotCountedAgainstBackend pins the rule that
// an inbound hangup is not a backend failure: when the client cancels
// mid-attempt, the gateway must not count a transport error, must not
// feed the ejection state machine, and must leave the backend in the
// ring. (A mass client disconnect once ejected perfectly healthy
// replicas.)
func TestGatewayClientCancelNotCountedAgainstBackend(t *testing.T) {
	stubs := []*stub{newStub("b0"), newStub("b1")}
	_, ts := newChaosGateway(t, stubs, func(c *gateway.Config) {
		c.FailThreshold = 1 // a single counted failure would eject
	})
	for _, s := range stubs {
		s.mode.Store("hang") // park the attempt so the cancel lands mid-flight
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict",
			strings.NewReader(`{"model":"cancel-net","gpus":["gtx1080ti"]}`))
		if err != nil {
			done <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with status %d against hung backends", resp.StatusCode)
		}
		done <- err
	}()
	waitUntil(t, 5*time.Second, "attempt parked on a hung stub", func() bool {
		return stubs[0].hangs.Load()+stubs[1].hangs.Load() > 0
	})
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	samples, _ := promScrape(t, ts.URL)
	if n := promFamilySum(samples, "cnnperfd_gw_transport_errors_total"); n != 0 {
		t.Errorf("transport_errors_total = %v after a client cancel, want 0", n)
	}
	if n := promFamilySum(samples, "cnnperfd_gw_ejections_total"); n != 0 {
		t.Errorf("ejections_total = %v after a client cancel, want 0", n)
	}
	if n := promFamilySum(samples, "cnnperfd_gw_backend_healthy"); n != float64(len(stubs)) {
		t.Errorf("backend_healthy sum = %v, want %d (nobody ejected)", n, len(stubs))
	}
	for _, s := range stubs {
		s.mode.Store("ok")
	}
	if code, raw, _ := postBody(t, ts.URL, "/v1/predict", []byte(`{"model":"cancel-net","gpus":["gtx1080ti"]}`)); code != http.StatusOK {
		t.Errorf("post-cancel request: status %d: %s", code, raw)
	}
}
