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
	fr          *obs.FlightRecorder
	handler     http.Handler

	gate *drainGate

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
		gate:     newDrainGate(),
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
		g.fr = obs.NewFlightRecorder(frCfg)
		g.fr.RegisterMetrics(g.metrics.reg)
	}
	g.probeCtx, g.probeCancel = context.WithCancel(context.Background())
	g.probeDone = make(chan struct{})
	go g.probeLoop(g.probeCtx)
	g.handler = g.middleware(g.routes())
	return g, nil
}

// FlightRecorder returns the always-on trace capture, or nil when
// disabled.
func (g *Gateway) FlightRecorder() *obs.FlightRecorder { return g.fr }

// Handler returns the fully-wrapped HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Registry exposes the gateway metrics registry (tests, embedding).
func (g *Gateway) Registry() *obs.Registry { return g.metrics.reg }

// Ring exposes the routing ring (tests, admin tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Drain stops admitting requests (503) and waits for in-flight ones.
func (g *Gateway) Drain(ctx context.Context) error { return g.gate.drain(ctx) }

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
	httpSrv := &http.Server{
		Addr:              g.cfg.Addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		g.Close()
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout+time.Second)
	defer cancel()
	derr := g.Drain(drainCtx)
	serr := httpSrv.Shutdown(drainCtx)
	g.Close()
	if derr != nil {
		return derr
	}
	return serr
}

func (g *Gateway) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", g.handleProxy)
	mux.HandleFunc("POST /v1/lint", g.handleProxy)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	if g.fr != nil {
		mux.HandleFunc("GET /debug/flightrecorder", g.handleFlightRecorder)
	}
	mux.HandleFunc("/", g.handleNotFound)
	return mux
}

// middleware applies the cross-cutting policy: drain gating,
// request-id echo, in-flight accounting, access logging and panic
// containment. Body bounding happens in the proxy handler (it buffers
// the body anyway).
func (g *Gateway) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		rid := requestID(r)
		sw.Header().Set("X-Request-ID", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)
		if !g.gate.enter() {
			g.metrics.rejected.Inc()
			sw.Header().Set("Retry-After", "1")
			writeError(ctx, sw, http.StatusServiceUnavailable, "draining", "gateway is shutting down")
			return
		}
		defer g.gate.exit()
		g.metrics.inFlight.Add(1)
		defer g.metrics.inFlight.Add(-1)
		start := time.Now()
		// The flight recorder traces every proxied request: a gw.route
		// root (adopting an inbound traceparent when the caller already
		// started a trace) with one gw.attempt child per proxy attempt.
		var frt *obs.Tracer
		var root *obs.Span
		if g.fr != nil && r.Method == http.MethodPost &&
			(r.URL.Path == "/v1/predict" || r.URL.Path == "/v1/lint") {
			frt = g.fr.StartRequest()
			fctx := obs.WithTracer(r.Context(), frt)
			if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
				if tc, err := obs.ParseTraceparent(tp); err == nil {
					fctx = obs.WithRemoteParent(fctx, tc)
				}
			}
			fctx, root = obs.Start(fctx, "gw.route",
				obs.String("path", r.URL.Path), obs.String("request_id", rid))
			r = r.WithContext(fctx)
		}
		defer func() {
			if p := recover(); p != nil {
				g.cfg.Logger.ErrorCtx(ctx, "gateway panic",
					obs.String("path", r.URL.Path), obs.String("panic", fmt.Sprint(p)))
				if !sw.wrote {
					writeError(ctx, sw, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p))
				}
			}
			dur := time.Since(start)
			g.cfg.Logger.InfoCtx(ctx, "gw request",
				obs.String("method", r.Method), obs.String("path", r.URL.Path),
				obs.Int("status", sw.status), obs.Duration("dur", dur.Round(time.Microsecond)))
			if g.cfg.SlowRequest > 0 && dur > g.cfg.SlowRequest {
				g.cfg.Logger.WarnCtx(ctx, "slow gw request",
					obs.String("path", r.URL.Path), obs.Int("status", sw.status),
					obs.Duration("dur", dur.Round(time.Microsecond)))
			}
			if frt != nil {
				root.SetAttr(obs.Int("status", sw.status))
				root.End()
				g.fr.Finish(frt, obs.TraceMeta{
					Endpoint:  strings.TrimPrefix(r.URL.Path, "/v1/"),
					RequestID: rid,
					Status:    sw.status,
					Err:       sw.status >= 500,
					Duration:  dur,
				})
			}
		}()
		next.ServeHTTP(sw, r)
	})
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(ctx, w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(ctx, w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
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
		writeError(ctx, w, http.StatusServiceUnavailable, "no_backends", "no healthy backend available")
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
		if st == nil || !st.enter() {
			continue // draining out of the fleet; try its successor
		}
		if attempts > 0 {
			g.metrics.retries.Inc()
			backoff := g.cfg.RetryBackoff << (attempts - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				st.exit()
				writeError(ctx, w, http.StatusGatewayTimeout, "timeout", "request deadline exceeded during retry backoff")
				return
			}
		}
		attempts++
		start := time.Now()
		attemptCtx, asp := obs.Start(ctx, "gw.attempt",
			obs.String("backend", backend), obs.Int("attempt", attempts),
			obs.Bool("reroute", drainRetried))
		resp, err := g.attempt(attemptCtx, backend, r, body)
		if err != nil {
			asp.SetAttr(obs.String("err", err.Error()))
			asp.End()
			st.exit()
			lastErr = err
			// A dead inbound context means the client hung up or its
			// deadline passed mid-attempt — that says nothing about the
			// backend, so it must not count as a transport error or
			// feed the ejection state machine.
			if ctx.Err() != nil {
				break
			}
			g.metrics.transport.With(backend).Inc()
			g.applyTransition(st, st.reportTransportFailure(g.cfg.FailThreshold))
			g.cfg.Logger.WarnCtx(ctx, "proxy attempt failed",
				obs.String("backend", backend), obs.String("err", err.Error()))
			continue
		}
		// Read the whole response: retries and the draining check need
		// it, and bodies here are small JSON documents.
		respBody, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		st.exit()
		if readErr != nil {
			asp.SetAttr(obs.String("err", readErr.Error()))
			asp.End()
			lastErr = fmt.Errorf("reading response from %s: %w", backend, readErr)
			if ctx.Err() != nil {
				break
			}
			g.metrics.transport.With(backend).Inc()
			continue
		}
		g.metrics.record(backend, resp.StatusCode, time.Since(start))
		asp.SetAttr(obs.Int("status", resp.StatusCode))
		asp.End()
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
		writeError(ctx, w, http.StatusGatewayTimeout, "timeout", msg)
		return
	}
	g.metrics.noBackend.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(ctx, w, http.StatusServiceUnavailable, "no_backends", msg)
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
	var env server.ErrorEnvelope
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
	writeJSON(w, status, hz)
}

// handleFlightRecorder serves the retained traces as one Chrome trace
// document; ?trace=<32-hex id> narrows it to a single distributed
// trace (for `obscheck stitch`).
func (g *Gateway) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = g.fr.WriteChromeTrace(w, r.URL.Query().Get("trace"))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = g.metrics.writePrometheus(w)
}

func (g *Gateway) handleNotFound(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/predict", "/v1/lint":
		w.Header().Set("Allow", http.MethodPost)
		writeError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires POST", r.URL.Path))
		return
	case "/healthz", "/metrics":
		w.Header().Set("Allow", http.MethodGet)
		writeError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires GET", r.URL.Path))
		return
	}
	writeError(r.Context(), w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
}

// --- small local copies of the server's request plumbing ---
// (the types are unexported there; duplicating ~60 lines keeps the
// packages independent and the gateway deployable without the server)

type drainGate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
}

func newDrainGate() *drainGate { return &drainGate{idle: make(chan struct{})} }

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
}

func (g *drainGate) drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	if g.inflight == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
	g.mu.Unlock()
	select {
	case <-g.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gateway: drain: %w", ctx.Err())
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return obs.NewRequestID()
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(ctx context.Context, w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, server.ErrorEnvelope{Error: server.ErrorBody{
		Code: code, Message: msg, RequestID: obs.RequestID(ctx),
	}})
}
