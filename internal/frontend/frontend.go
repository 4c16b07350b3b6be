// Package frontend is the HTTP request path that cnnperfd's replica
// (internal/server) and its gateway (internal/gateway) share: the drain
// gate, request-id echo, the structured error envelope, panic
// containment, access and slow-request logs, the flight-recorder root
// span, the /metrics and /debug/flightrecorder handlers, the 404/405
// catch-all and the serve-then-drain loop.
//
// A front end supplies only what differs between the two: how it labels
// a request, which requests it traces under which root span, and its
// per-request metrics.
package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cnnperf/internal/obs"
)

// ErrorEnvelope is the structured error body every non-2xx response
// carries.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the machine-readable error payload.
type ErrorBody struct {
	// Code is a stable machine-readable error class.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RequestID correlates the error with the access log line and the
	// X-Request-ID response header.
	RequestID string `json:"request_id,omitempty"`
}

// WriteJSON writes v as an indented JSON document with the status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the error envelope, stamped with ctx's request id.
func WriteError(ctx context.Context, w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code: code, Message: msg, RequestID: obs.RequestID(ctx),
	}})
}

// WriteBodyError answers a failed read of a bounded request body: 413
// when the body exceeded its bound, else 400 with the failed step's
// description prefixed to the error.
func WriteBodyError(ctx context.Context, w http.ResponseWriter, err error, step string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(ctx, w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	WriteError(ctx, w, http.StatusBadRequest, "bad_request", step+err.Error())
}

// StatusClasses are the status-class labels StatusClass returns, for
// pre-registering every series.
var StatusClasses = []string{"2xx", "4xx", "5xx"}

// LatencyBounds are the histogram bucket bounds, in seconds, of request
// and proxy latency.
var LatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// StatusClass is the status-class label ("2xx", "4xx", "5xx") a
// response is counted under.
func StatusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	}
	return "2xx"
}

// Front is one front end's request policy. Set the fields, then wrap
// the routes with Handler; the zero gate admits requests until Drain.
type Front struct {
	// Name is the front end's name in its draining envelope ("<Name> is
	// shutting down") and its drain error.
	Name        string
	Logger      *obs.Logger // nil disables logging
	SlowRequest time.Duration
	Recorder    *obs.FlightRecorder // nil disables tracing
	InFlight    *obs.Gauge
	Rejected    *obs.Counter // requests refused while draining
	// Panics and Slow count contained panics and requests slower than
	// SlowRequest; nil counts nothing.
	Panics, Slow *obs.Counter
	// Classify labels a request for logs, metrics and the flight
	// recorder, and names the root span the recorder traces it under;
	// "" leaves it untraced.
	Classify func(r *http.Request) (endpoint, root string)
	// Record counts one completed request; nil records nothing.
	Record func(endpoint string, status int, d time.Duration)

	gate Gate
}

// Mount registers the routes every front end serves on mux: GET
// /metrics over reg, GET /debug/flightrecorder when the recorder is on,
// and the 404/405 catch-all.
func (f *Front) Mount(mux *http.ServeMux, reg *obs.Registry) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = reg.WritePrometheus(w)
	})
	if f.Recorder != nil {
		// The retained traces as one Chrome trace document; ?trace=<32-hex
		// id> narrows it to a single distributed trace (for `obscheck
		// stitch`).
		mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = f.Recorder.WriteChromeTrace(w, r.URL.Query().Get("trace"))
		})
	}
	mux.HandleFunc("/", notFound)
}

// notFound answers what no typed route matched. A known path reached
// here means the method was wrong (the typed mux patterns only match
// their own verb).
func notFound(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/predict", "/v1/lint":
		w.Header().Set("Allow", http.MethodPost)
		WriteError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires POST", r.URL.Path))
		return
	case "/healthz", "/metrics":
		w.Header().Set("Allow", http.MethodGet)
		WriteError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires GET", r.URL.Path))
		return
	}
	WriteError(r.Context(), w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
}

// Handler wraps next with the shared request policy: request-id echo,
// drain gating, in-flight accounting, the flight-recorder root,
// panic containment, metrics, and access and slow-request logs.
func (f *Front) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep, rootName := f.Classify(r)
		sw := &statusWriter{ResponseWriter: w}
		rid := requestID(r)
		sw.Header().Set("X-Request-ID", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)
		if !f.gate.Enter() {
			f.Rejected.Inc()
			sw.Header().Set("Retry-After", "1")
			WriteError(ctx, sw, http.StatusServiceUnavailable, "draining", f.Name+" is shutting down")
			return
		}
		defer f.gate.Exit()
		f.InFlight.Add(1)
		defer f.InFlight.Add(-1)
		start := time.Now()
		// A traced request runs on a pooled tracer; its root span adopts
		// an inbound traceparent, so the local span forest hangs off the
		// caller's trace.
		var frt *obs.Tracer
		var root *obs.Span
		if f.Recorder != nil && rootName != "" {
			frt = f.Recorder.StartRequest()
			fctx := obs.WithTracer(ctx, frt)
			if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
				if tc, err := obs.ParseTraceparent(tp); err == nil {
					fctx = obs.WithRemoteParent(fctx, tc)
				}
			}
			fctx, root = obs.Start(fctx, rootName, obs.String("request_id", rid))
			r = r.WithContext(fctx)
		}
		defer func() {
			if p := recover(); p != nil {
				if f.Panics != nil {
					f.Panics.Inc()
				}
				f.Logger.ErrorCtx(ctx, "handler panic",
					obs.String("endpoint", ep), obs.String("path", r.URL.Path),
					obs.String("panic", fmt.Sprint(p)))
				if !sw.wrote {
					WriteError(ctx, sw, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p))
				}
			}
			dur := time.Since(start)
			if f.Record != nil {
				f.Record(ep, sw.status, dur)
			}
			f.Logger.InfoCtx(ctx, "request",
				obs.String("method", r.Method), obs.String("path", r.URL.Path),
				obs.String("endpoint", ep), obs.Int("status", sw.status),
				obs.Duration("dur", dur.Round(time.Microsecond)))
			if f.SlowRequest > 0 && dur > f.SlowRequest {
				if f.Slow != nil {
					f.Slow.Inc()
				}
				f.Logger.WarnCtx(ctx, "slow request",
					obs.String("method", r.Method), obs.String("path", r.URL.Path),
					obs.Int("status", sw.status),
					obs.Duration("dur", dur.Round(time.Microsecond)),
					obs.Duration("threshold", f.SlowRequest))
			}
			if frt != nil {
				root.SetAttr(obs.Int("status", sw.status))
				root.End()
				f.Recorder.Finish(frt, obs.TraceMeta{
					Endpoint:  ep,
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

// Drain stops admitting requests (they get 503) and waits until every
// in-flight request has completed or ctx expires.
func (f *Front) Drain(ctx context.Context) error {
	if err := f.gate.Drain(ctx); err != nil {
		return fmt.Errorf("%s: drain: %w", f.Name, err)
	}
	return nil
}

// ListenAndServe serves h on addr until ctx is cancelled, then drains:
// new requests get 503 while in-flight ones finish (bounded by timeout
// plus a grace second), and the listener shuts down. stop runs last,
// also when the listener fails.
func (f *Front) ListenAndServe(ctx context.Context, addr string, h http.Handler, timeout time.Duration, stop func()) error {
	defer stop()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), timeout+time.Second)
	defer cancel()
	derr := f.Drain(drainCtx)
	serr := httpSrv.Shutdown(drainCtx)
	if derr != nil {
		return derr
	}
	return serr
}

// Gate admits work until draining begins, then reports idle once the
// in-flight count reaches zero; the zero Gate admits. A plain
// mutex-and-channel design (rather than a WaitGroup) keeps Enter and
// Drain free of the Add-after-Wait race.
type Gate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // made when draining begins; closed once inflight is zero
}

// Enter admits one unit of work; false once draining has begun.
func (g *Gate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// Exit retires one admitted unit. Once draining, nothing is admitted,
// so the count reaches zero at most once.
func (g *Gate) Exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		close(g.idle)
	}
}

// Draining reports whether Drain has begun.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drain shuts the gate for good and waits until the admitted work has
// exited, or returns ctx's error once ctx expires.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		g.idle = make(chan struct{})
		if g.inflight == 0 {
			close(g.idle)
		}
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusWriter captures the response status for metrics and guards the
// panic-recovery path against double WriteHeader.
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

// requestID resolves the request id: an inbound X-Request-ID is
// honoured when it is a reasonable token, otherwise a fresh id is
// generated. The id is echoed on the response either way.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return obs.NewRequestID()
}

// validRequestID bounds inbound ids so a hostile header cannot inject
// log or header content: 1-64 chars of [A-Za-z0-9._-].
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
