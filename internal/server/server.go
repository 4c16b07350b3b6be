// Package server implements cnnperfd, the long-lived prediction
// serving daemon: an HTTP/JSON front end over the analysis pipeline
// that amortizes the compiled-DCA and analysis-cache work of the CLI
// across requests.
//
// Endpoints:
//
//	POST /v1/predict  CNN spec or raw PTX in, per-GPU IPC predictions out
//	POST /v1/lint     PTXA static-analysis diagnostics
//	GET  /healthz     liveness probe
//	GET  /metrics     Prometheus text exposition
//
// The server owns one process-wide analysis cache and one bounded
// worker pool. A predict whose unit is memoized is answered at once; a
// miss computes under the cache's singleflight, which coalesces
// identical concurrent predictions, on one worker of the pool, which
// bounds distinct ones (see batch.go). Every request gets a deadline, a
// bounded body, and a structured error envelope; shutdown drains
// in-flight requests while late arrivals get 503.
package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/core"
	"cnnperf/internal/frontend"
	"cnnperf/internal/obs"
	"cnnperf/internal/parallel"
)

// Config collects the daemon knobs.
type Config struct {
	// Addr is the listen address (default ":8077").
	Addr string
	// Workers sizes the shared analysis worker pool (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// CacheSize bounds the analysis cache entry count (<= 0 means
	// unbounded).
	CacheSize int
	// Timeout is the per-request deadline (default 60s). A cache miss's
	// detached analysis gets the same budget.
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// PTXMaxSteps bounds the abstract execution of each thread of a raw
	// PTX payload, capping adversarial inputs (default 5M steps).
	PTXMaxSteps int64
	// Pipeline overrides the analysis pipeline configuration; nil
	// selects core.DefaultConfig(). Workers and Cache are always
	// overwritten with the server-owned pool size and cache.
	Pipeline *core.Config
	// Logger receives structured access and error logs; nil disables
	// logging (every log call is a no-op).
	Logger *obs.Logger
	// SlowRequest is the latency above which a completed request is
	// logged at warn level (and counted); <= 0 disables the check.
	SlowRequest time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Profile
	// captures are exempt from the request timeout (a 30s CPU profile
	// must outlive a 10s deadline) but still gated by draining.
	EnablePprof bool
	// StoreDir roots the persistent artifact store: a write-through
	// disk tier under the analysis cache that survives restarts. Empty
	// disables persistence. Only NewWithStore honours this field.
	StoreDir string
	// SnapshotFile pre-loads a `cnnperf store export` snapshot into the
	// disk tier's read-only overlay, so a replica boots warm without a
	// local store directory. May be combined with StoreDir (the store
	// is probed first). Only NewWithStore honours this field.
	SnapshotFile string
	// DisableFlightRecorder turns off the always-on trace capture. The
	// recorder is on by default: every /v1/predict and /v1/lint request
	// is traced into a pooled tracer and tail-retained (errors, slow
	// requests, a reservoir sample) for GET /debug/flightrecorder.
	DisableFlightRecorder bool
	// FlightRecorder tunes the trace capture (zero values select the
	// obs.FlightRecorderConfig defaults; Process defaults to "replica").
	FlightRecorder obs.FlightRecorderConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8077"
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.PTXMaxSteps <= 0 {
		c.PTXMaxSteps = 5_000_000
	}
	return c
}

// Server is the daemon state: one analysis cache, one worker pool, and
// the serving telemetry. Construct with New, serve its Handler, and
// stop it with Drain then Close.
type Server struct {
	cfg      Config
	pipeline core.Config
	cache    *analysiscache.Cache
	pool     *parallel.Pool
	metrics  *metrics
	front    *frontend.Front
	handler  http.Handler
	// tier is the persistent artifact tier under the cache; nil unless
	// constructed with NewWithStore and a StoreDir or SnapshotFile.
	tier *artifactstore.Tier

	// baseCtx outlives any single request: cache-miss analyses run under
	// it so a departed client cannot cancel work that will be cached for
	// the next caller. Close cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a server from cfg (zero values select defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	pipeline := core.DefaultConfig()
	if cfg.Pipeline != nil {
		pipeline = *cfg.Pipeline
	}
	cache := analysiscache.New(cfg.CacheSize)
	pipeline.Cache = cache
	pipeline.Workers = 1 // the pool provides the fan-out; keep units serial inside
	ctx, cancel := context.WithCancel(context.Background())
	pool := parallel.NewPool(cfg.Workers)
	m := newMetrics(cache, pool)
	s := &Server{
		cfg:      cfg,
		pipeline: pipeline,
		cache:    cache,
		pool:     pool,
		metrics:  m,
		front: &frontend.Front{
			Name:        "server",
			Logger:      cfg.Logger,
			SlowRequest: cfg.SlowRequest,
			InFlight:    m.inFlight,
			Rejected:    m.rejected,
			Panics:      m.panics,
			Slow:        m.slow,
			Classify:    classify,
			Record:      m.record,
		},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if !cfg.DisableFlightRecorder {
		frCfg := cfg.FlightRecorder
		if frCfg.Process == "" {
			frCfg.Process = "replica"
		}
		s.front.Recorder = obs.NewFlightRecorder(frCfg)
		s.front.Recorder.RegisterMetrics(m.reg)
	}
	s.handler = s.routes()
	return s
}

// FlightRecorder returns the always-on trace capture, or nil when
// disabled.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.front.Recorder }

// NewWithStore builds a server and attaches the persistent artifact
// tier described by cfg.StoreDir and cfg.SnapshotFile: cache misses
// probe the disk store (then the snapshot overlay) before computing,
// and computed artifacts are written through. With neither field set
// it is equivalent to New. Store problems are construction errors —
// a daemon asked to persist must not silently run memory-only.
func NewWithStore(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.StoreDir == "" && cfg.SnapshotFile == "" {
		return s, nil
	}
	var store *artifactstore.Store
	if cfg.StoreDir != "" {
		var err error
		store, err = artifactstore.Open(cfg.StoreDir)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: opening artifact store: %w", err)
		}
	}
	tier, err := core.NewArtifactTier(store)
	if err != nil {
		s.Close()
		if store != nil {
			store.Close()
		}
		return nil, fmt.Errorf("server: building artifact tier: %w", err)
	}
	s.tier = tier
	tier.SetBaseContext(s.baseCtx)
	if cfg.SnapshotFile != "" {
		n, err := tier.LoadSnapshotFile(cfg.SnapshotFile)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: loading snapshot: %w", err)
		}
		s.cfg.Logger.Info("snapshot loaded",
			obs.String("file", cfg.SnapshotFile), obs.Int("records", n))
	}
	s.cache.SetSecondTier(tier)
	s.metrics.registerStore(tier)
	return s, nil
}

// ArtifactTier returns the persistent artifact tier, or nil when the
// server runs memory-only.
func (s *Server) ArtifactTier() *artifactstore.Tier { return s.tier }

// Handler returns the fully-wrapped HTTP handler (routing, draining,
// body bounds, deadlines, metrics, panic recovery).
func (s *Server) Handler() http.Handler { return s.handler }

// CacheStats exposes the process-wide analysis-cache counters (the
// same lock-free snapshot /metrics serves).
func (s *Server) CacheStats() analysiscache.Stats { return s.cache.Stats() }

// ListenAndServe serves until ctx is cancelled, then drains: new
// requests get 503 while in-flight ones finish (bounded by the request
// timeout plus a grace second), the listener shuts down, and the server
// closes.
func (s *Server) ListenAndServe(ctx context.Context) error {
	return s.front.ListenAndServe(ctx, s.cfg.Addr, s.handler, s.cfg.Timeout, s.Close)
}

// Drain stops admitting requests (they get 503) and waits until every
// in-flight request has completed or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.front.Drain(ctx) }

// Close releases the worker pool and the artifact store and cancels
// any in-flight analysis. Call after Drain; requests arriving later are
// rejected by the gate.
func (s *Server) Close() {
	s.baseCancel()
	s.pool.Close()
	if s.tier != nil && s.tier.Store() != nil {
		// Every write went out with its Put; a late write-through after
		// this fails and is dropped like any other failed Put.
		_ = s.tier.Store().Close()
	}
}

// classify labels a request by endpoint; the flight recorder traces
// predict and lint under a srv.<endpoint> root span.
func classify(r *http.Request) (endpoint, root string) {
	switch r.URL.Path {
	case "/v1/predict":
		return "predict", "srv.predict"
	case "/v1/lint":
		return "lint", "srv.lint"
	case "/healthz":
		return "healthz", ""
	case "/metrics":
		return "metrics", ""
	case "/debug/flightrecorder":
		return "flightrecorder", ""
	}
	if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
		return "pprof", ""
	}
	return "other", ""
}

// bound applies the replica's own request limits inside the shared
// front end: the body bound and the per-request deadline.
func (s *Server) bound(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		// pprof captures run as long as their ?seconds= argument asks;
		// the request timeout would truncate them, so they are exempt.
		if ep, _ := classify(r); ep != "pprof" {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// routes builds the wrapped handler: the shared front end outside the
// replica's own request limits.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/lint", s.handleLint)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.front.Mount(mux, s.metrics.reg)
	return s.front.Handler(s.bound(mux))
}
