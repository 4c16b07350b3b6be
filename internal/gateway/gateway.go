package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cnnperf/internal/frontend"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
)

// Config collects the gateway knobs.
type Config struct {
	// Addr is the listen address (default ":8076").
	Addr string
	// Backends are the replica base URLs (e.g. "http://127.0.0.1:8077").
	// At least one is required.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (<= 0 selects 128).
	VNodes int
	// ProbeInterval is the health-check period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe (or request transport)
	// failures that eject a backend from the ring (default 3).
	FailThreshold int
	// ReviveThreshold is the consecutive probe successes that re-admit
	// an ejected backend (default 2).
	ReviveThreshold int
	// RetryBudget is the maximum proxy attempts per request, including
	// the first (default 3, clamped to the backend count).
	RetryBudget int
	// RetryBackoff is the pause before the first retry, doubling per
	// subsequent retry (default 10ms).
	RetryBackoff time.Duration
	// Timeout bounds one proxy attempt (default 60s).
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB). Bodies are
	// buffered whole: the routing key is a function of the content, and
	// retries need to replay it.
	MaxBodyBytes int64
	// Logger receives structured logs; nil disables logging.
	Logger *obs.Logger
	// SlowRequest logs completed requests slower than this at warn
	// level; <= 0 disables the check.
	SlowRequest time.Duration
	// Transport overrides the proxy transport (tests); nil selects a
	// dedicated transport with sane pooling.
	Transport http.RoundTripper
	// DisableFlightRecorder turns off the always-on trace capture. The
	// recorder is on by default: every proxied request is traced
	// (gw.route root, one gw.attempt child per proxy attempt) and
	// tail-retained for GET /debug/flightrecorder.
	DisableFlightRecorder bool
	// FlightRecorder tunes the trace capture (zero values select the
	// obs.FlightRecorderConfig defaults; Process defaults to "gateway").
	FlightRecorder obs.FlightRecorderConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8076"
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReviveThreshold <= 0 {
		c.ReviveThreshold = 2
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Gateway is the sharded router: a hash ring of replicas, a health
// prober, and the proxy loop. Construct with New, serve Handler, stop
// with Drain then Close.
type Gateway struct {
	cfg         Config
	ring        *Ring
	backends    map[string]*backendState
	backendList []*backendState // stable order for probing
	metrics     *gwMetrics
	client      *http.Client
	front       *frontend.Front
	handler     http.Handler

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeDone   chan struct{}

	closeOnce sync.Once
}

// New builds a gateway over the configured backends. Backend URLs are
// normalized (scheme required, trailing slash stripped) and
// duplicates rejected.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	normalized := make([]string, 0, len(cfg.Backends))
	seen := make(map[string]struct{}, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q is not an absolute http(s) URL", raw)
		}
		b := u.Scheme + "://" + u.Host + strings.TrimSuffix(u.Path, "/")
		if _, dup := seen[b]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %q", b)
		}
		seen[b] = struct{}{}
		normalized = append(normalized, b)
	}
	sort.Strings(normalized)
	cfg.Backends = normalized

	ring := NewRing(cfg.VNodes)
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		backends: make(map[string]*backendState, len(normalized)),
		metrics:  newGwMetrics(ring, normalized),
	}
	g.front = &frontend.Front{
		Name:        "gateway",
		Logger:      cfg.Logger,
		SlowRequest: cfg.SlowRequest,
		InFlight:    g.metrics.inFlight,
		Rejected:    g.metrics.rejected,
		Classify:    classify,
	}
	for _, b := range normalized {
		st := newBackendState(b)
		g.backends[b] = st
		g.backendList = append(g.backendList, st)
		ring.Add(b)
	}
	transport := cfg.Transport
	if transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64
		transport = t
	}
	// Per-attempt deadlines come from request contexts; the client
	// itself must not add a second, fixed timeout.
	g.client = &http.Client{Transport: transport}
	if !cfg.DisableFlightRecorder {
		frCfg := cfg.FlightRecorder
		if frCfg.Process == "" {
			frCfg.Process = "gateway"
		}
		g.front.Recorder = obs.NewFlightRecorder(frCfg)
		g.front.Recorder.RegisterMetrics(g.metrics.reg)
	}
	g.probeCtx, g.probeCancel = context.WithCancel(context.Background())
	g.probeDone = make(chan struct{})
	go g.probeLoop(g.probeCtx)
	g.handler = g.routes()
	return g, nil
}

// FlightRecorder returns the always-on trace capture, or nil when
// disabled.
func (g *Gateway) FlightRecorder() *obs.FlightRecorder { return g.front.Recorder }

// Handler returns the fully-wrapped HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Registry exposes the gateway metrics registry (tests, embedding).
func (g *Gateway) Registry() *obs.Registry { return g.metrics.reg }

// Ring exposes the routing ring (tests, admin tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Drain stops admitting requests (503) and waits for in-flight ones.
func (g *Gateway) Drain(ctx context.Context) error { return g.front.Drain(ctx) }

// Close stops the health prober and releases idle connections.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		g.probeCancel()
		<-g.probeDone
		g.client.CloseIdleConnections()
	})
}

// ListenAndServe serves until ctx is cancelled, then drains and stops.
func (g *Gateway) ListenAndServe(ctx context.Context) error {
	return g.front.ListenAndServe(ctx, g.cfg.Addr, g.handler, g.cfg.Timeout, g.Close)
}

// routes builds the wrapped handler. The proxy handler bounds the body
// itself, since it buffers the body anyway.
func (g *Gateway) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", g.handleProxy)
	mux.HandleFunc("POST /v1/lint", g.handleProxy)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.front.Mount(mux, g.metrics.reg)
	return g.front.Handler(mux)
}

// classify labels a request by its path below /v1/; the flight
// recorder traces the proxied POSTs under a gw.route root span, with
// one gw.attempt child per proxy attempt.
func classify(r *http.Request) (endpoint, root string) {
	if r.Method == http.MethodPost && (r.URL.Path == "/v1/predict" || r.URL.Path == "/v1/lint") {
		root = "gw.route"
	}
	return strings.TrimPrefix(r.URL.Path, "/v1/"), root
}

// RoutingKey computes the consistent-hash key for a request body on
// path: the server's own memo content key when the body
// parses as one, a content hash of the raw bytes otherwise (malformed
// payloads still route deterministically, and the owning backend
// produces the error envelope — the gateway never duplicates
// validation).
func RoutingKey(path string, body []byte) string {
	switch path {
	case "/v1/predict":
		var req server.PredictRequest
		if err := json.Unmarshal(body, &req); err == nil && (req.Model != "") != (req.PTX != "") {
			return req.ContentKey()
		}
	case "/v1/lint":
		var req server.LintRequest
		if err := json.Unmarshal(body, &req); err == nil && (req.Model != "") != (req.PTX != "") {
			return req.ContentKey()
		}
	}
	sum := sha256.Sum256(body)
	return "raw\x00" + hex.EncodeToString(sum[:])
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	obs.SpanFrom(ctx).SetAttr(obs.String("path", r.URL.Path)) // on the gw.route root
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		frontend.WriteBodyError(ctx, w, err, "reading request body: ")
		return
	}
	g.proxy(ctx, w, r, RoutingKey(r.URL.Path, body), body)
}

// proxy runs the retry loop for one request: walk the key's ring
// sequence, retrying transport failures with exponential backoff
// under the budget, re-routing at most one draining 503, and
// forwarding the first real response verbatim.
func (g *Gateway) proxy(ctx context.Context, w http.ResponseWriter, r *http.Request, key string, body []byte) {
	candidates := g.ring.Sequence(key, g.cfg.RetryBudget)
	if len(candidates) == 0 {
		g.metrics.noBackend.Inc()
		w.Header().Set("Retry-After", "1")
		frontend.WriteError(ctx, w, http.StatusServiceUnavailable, "no_backends", "no healthy backend available")
		return
	}
	var (
		attempts     int
		drainRetried bool
		lastErr      error
	)
	for i := 0; i < len(candidates); i++ {
		backend := candidates[i]
		st := g.backends[backend]
		if st == nil || !st.gate.Enter() {
			continue // draining out of the fleet; try its successor
		}
		attempts++
		resp, respBody, err, readErr := g.exchange(ctx, st, backend, r, body, attempts, drainRetried)
		if errors.Is(err, errBackoffCut) {
			frontend.WriteError(ctx, w, http.StatusGatewayTimeout, "timeout", errBackoffCut.Error())
			return
		}
		if err != nil || readErr != nil {
			lastErr = err
			if readErr != nil {
				lastErr = fmt.Errorf("reading response from %s: %w", backend, readErr)
			}
			// A dead inbound context means the client hung up or its
			// deadline passed mid-attempt — that says nothing about the
			// backend, so it must not count as a transport error or
			// feed the ejection state machine.
			if ctx.Err() != nil {
				break
			}
			g.metrics.transport.With(backend).Inc()
			if err != nil {
				g.applyTransition(st, st.reportTransportFailure(g.cfg.FailThreshold))
				g.cfg.Logger.WarnCtx(ctx, "proxy attempt failed",
					obs.String("backend", backend), obs.String("err", err.Error()))
			}
			continue
		}
		// A replica that is shutting down answers 503 with the
		// "draining" envelope; the request is re-routed to the next
		// healthy replica exactly once. A second draining answer (or a
		// 503 with any other meaning) is forwarded as-is.
		if resp.StatusCode == http.StatusServiceUnavailable && !drainRetried &&
			i+1 < len(candidates) && isDrainingEnvelope(respBody) {
			drainRetried = true
			g.metrics.drainRetries.Inc()
			g.cfg.Logger.InfoCtx(ctx, "re-routing draining 503",
				obs.String("backend", backend))
			continue
		}
		forwardResponse(w, resp, respBody, backend, attempts)
		return
	}
	msg := "all proxy attempts failed"
	if lastErr != nil {
		msg = fmt.Sprintf("all proxy attempts failed: %v", lastErr)
	}
	if ctx.Err() != nil {
		frontend.WriteError(ctx, w, http.StatusGatewayTimeout, "timeout", msg)
		return
	}
	g.metrics.noBackend.Inc()
	w.Header().Set("Retry-After", "1")
	frontend.WriteError(ctx, w, http.StatusServiceUnavailable, "no_backends", msg)
}

// errBackoffCut reports that the request's context ended during the
// backoff before a retry.
var errBackoffCut = errors.New("request deadline exceeded during retry backoff")

// exchange is the attempt-th attempt of a request on backend, whose
// in-flight slot the caller has taken: the backoff before a retry, the
// request, and the read of the whole response (retries and the draining
// check need it, and bodies here are small JSON documents). It releases
// the slot on every way out, a panic included, so a later RemoveBackend
// never waits for a request that is gone. err is a transport failure (or
// errBackoffCut), readErr a failure reading the response body.
func (g *Gateway) exchange(ctx context.Context, st *backendState, backend string, r *http.Request, body []byte, attempt int, reroute bool) (resp *http.Response, respBody []byte, err, readErr error) {
	defer st.gate.Exit()
	if attempt > 1 {
		g.metrics.retries.Inc()
		select {
		case <-time.After(g.cfg.RetryBackoff << (attempt - 2)):
		case <-ctx.Done():
			return nil, nil, errBackoffCut, nil
		}
	}
	start := time.Now()
	attemptCtx, asp := obs.Start(ctx, "gw.attempt",
		obs.String("backend", backend), obs.Int("attempt", attempt),
		obs.Bool("reroute", reroute))
	defer asp.End()
	resp, err = g.attempt(attemptCtx, backend, r, body)
	if err != nil {
		asp.SetAttr(obs.String("err", err.Error()))
		return nil, nil, err, nil
	}
	respBody, readErr = io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil {
		asp.SetAttr(obs.String("err", readErr.Error()))
		return nil, nil, nil, readErr
	}
	g.metrics.record(backend, resp.StatusCode, time.Since(start))
	asp.SetAttr(obs.Int("status", resp.StatusCode))
	return resp, respBody, nil, nil
}

// attempt issues one proxied request to one backend. The caller reads
// the response body after attempt returns, so the per-attempt context
// stays live until the body is closed.
func (g *Gateway) attempt(ctx context.Context, backend string, r *http.Request, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	u := backend + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	// The edge request id and the trace position propagate to the
	// backend: replica access logs and error envelopes share the
	// gateway's request id, and the replica's spans hang off this
	// attempt's span in the distributed trace.
	req.Header.Set("X-Request-ID", obs.RequestID(ctx))
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("proxy %s: %w", backend, err)
	}
	resp.Body = cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose releases a per-attempt context when its response body
// is closed. Cancelling any earlier fails a body that has not fully
// arrived with "context canceled".
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// proxyHeaderAllowlist are the request headers forwarded to backends.
var proxyHeaderAllowlist = []string{"Content-Type", "Accept", "Accept-Encoding"}

func copyProxyHeaders(dst, src http.Header) {
	for _, h := range proxyHeaderAllowlist {
		if vs := src.Values(h); len(vs) > 0 {
			dst[h] = append([]string(nil), vs...)
		}
	}
}

// hopHeaders are never forwarded from backend responses (RFC 9110
// hop-by-hop set plus Content-Length, which the writer recomputes).
var hopHeaders = map[string]struct{}{
	"Connection": {}, "Keep-Alive": {}, "Proxy-Authenticate": {},
	"Proxy-Authorization": {}, "Te": {}, "Trailer": {},
	"Transfer-Encoding": {}, "Upgrade": {}, "Content-Length": {},
	// The gateway already set the response id from its own middleware;
	// the backend echoes the same id, so dropping it avoids duplicates.
	"X-Request-Id": {},
}

// forwardResponse relays a backend response verbatim: status, headers
// (minus hop-by-hop) and the exact body bytes, plus the gateway's own
// X-Gateway-* debugging headers.
func forwardResponse(w http.ResponseWriter, resp *http.Response, body []byte, backend string, attempts int) {
	h := w.Header()
	for k, vs := range resp.Header {
		if _, hop := hopHeaders[http.CanonicalHeaderKey(k)]; hop {
			continue
		}
		h[k] = append([]string(nil), vs...)
	}
	h.Set("X-Gateway-Backend", backend)
	h.Set("X-Gateway-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// isDrainingEnvelope reports whether a 503 body is the server's
// structured draining envelope.
func isDrainingEnvelope(body []byte) bool {
	var env frontend.ErrorEnvelope
	return json.Unmarshal(body, &env) == nil && env.Error.Code == "draining"
}

// BackendHealth is one backend's state in the /healthz document.
type BackendHealth struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	InRing   bool   `json:"in_ring"`
}

// HealthzResponse is the gateway /healthz document.
type HealthzResponse struct {
	Status   string          `json:"status"` // ok | degraded | down
	RingSize int             `json:"ring_size"`
	Backends []BackendHealth `json:"backends"`
}

func (g *Gateway) healthz() HealthzResponse {
	out := HealthzResponse{RingSize: g.ring.Size()}
	healthyCount := 0
	for _, st := range g.backendList {
		healthy, draining := st.snapshot()
		inRing := g.ring.Has(st.url)
		if healthy && !draining {
			healthyCount++
		}
		out.Backends = append(out.Backends, BackendHealth{
			URL: st.url, Healthy: healthy, Draining: draining, InRing: inRing,
		})
	}
	switch {
	case healthyCount == len(g.backendList):
		out.Status = "ok"
	case healthyCount > 0:
		out.Status = "degraded"
	default:
		out.Status = "down"
	}
	return out
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hz := g.healthz()
	status := http.StatusOK
	if hz.Status == "down" {
		status = http.StatusServiceUnavailable
	}
	frontend.WriteJSON(w, status, hz)
}
