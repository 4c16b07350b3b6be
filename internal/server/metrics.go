package server

import (
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/frontend"
	"cnnperf/internal/obs"
	"cnnperf/internal/parallel"
	"cnnperf/internal/ptxanalysis"
)

// The serving telemetry is a thin façade over an obs.Registry: every
// counter the daemon records lives in one instrument registry, and
// /metrics renders it as Prometheus text exposition — the only format
// it serves. Recording stays lock-free; the cache and pool counters are
// bridged in as func metrics evaluated at scrape time.

// endpointNames are the pre-registered route labels, so /metrics shows
// every endpoint with zero counts before its first request.
var endpointNames = []string{"predict", "lint", "healthz", "metrics", "flightrecorder", "pprof", "other"}

// metrics is the process-wide serving telemetry, exported as
// Prometheus text on /metrics.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.CounterVec   // by endpoint and status class
	latency  *obs.HistogramVec // by endpoint, seconds
	inFlight *obs.Gauge
	panics   *obs.Counter
	rejected *obs.Counter // requests refused while draining
	slow     *obs.Counter // requests over the slow-request threshold
}

func newMetrics(cache *analysiscache.Cache, pool *parallel.Pool) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start: time.Now(),
		reg:   reg,
		requests: reg.CounterVec("cnnperfd_requests_total",
			"HTTP requests by endpoint and status class.", "endpoint", "code"),
		latency: reg.HistogramVec("cnnperfd_request_duration_seconds",
			"Request latency by endpoint.", frontend.LatencyBounds, "endpoint"),
		inFlight: reg.Gauge("cnnperfd_in_flight_requests",
			"Requests currently being served."),
		panics: reg.Counter("cnnperfd_panics_total",
			"Panics contained by the recovery middleware or the analysis pool."),
		rejected: reg.Counter("cnnperfd_rejected_total",
			"Requests refused while the server was draining."),
		slow: reg.Counter("cnnperfd_slow_requests_total",
			"Requests slower than the configured slow-request threshold."),
	}
	// Pre-register every endpoint series so zero counts are visible.
	for _, ep := range endpointNames {
		for _, class := range frontend.StatusClasses {
			m.requests.With(ep, class)
		}
		m.latency.With(ep)
	}
	reg.GaugeFunc("cnnperfd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	// The analysis cache and worker pool keep their own lock-free
	// counters; bridge them as func metrics read at scrape time.
	reg.CounterFunc("cnnperfd_cache_hits_total", "Analysis cache hits.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("cnnperfd_cache_misses_total", "Analysis cache misses.",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("cnnperfd_cache_waits_total",
		"Cache hits that waited on an in-flight computation (singleflight).",
		func() float64 { return float64(cache.Stats().Waits) })
	reg.CounterFunc("cnnperfd_cache_evictions_total", "Analysis cache evictions.",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.CounterFunc("cnnperfd_cache_disk_hits_total",
		"Cache misses answered by the persistent artifact tier.",
		func() float64 { return float64(cache.Stats().DiskHits) })
	reg.GaugeFunc("cnnperfd_cache_entries", "Resident analysis cache entries.",
		func() float64 { return float64(cache.Stats().Entries) })
	reg.GaugeFunc("cnnperfd_pool_workers", "Analysis worker pool size.",
		func() float64 { return float64(pool.Size()) })
	reg.GaugeFunc("cnnperfd_pool_active_workers", "Workers currently running a task.",
		func() float64 { return float64(pool.Stats().Active) })
	reg.CounterFunc("cnnperfd_pool_tasks_completed_total", "Pool tasks completed.",
		func() float64 { return float64(pool.Stats().Completed) })
	// Analysis-side instruments (the absint fixpoint-iterations
	// histogram) publish through the same registry.
	ptxanalysis.RegisterMetrics(reg)
	return m
}

// registerStore bridges the persistent artifact tier's counters once a
// tier is attached (NewWithStore). The store may be nil (snapshot-only
// tier); its counters then read as constant zero.
func (m *metrics) registerStore(tier *artifactstore.Tier) {
	storeStats := func() artifactstore.Stats {
		if st := tier.Store(); st != nil {
			return st.Stats()
		}
		return artifactstore.Stats{}
	}
	m.reg.CounterFunc("cnnperfd_store_hits_total", "Artifact store disk hits.",
		func() float64 { return float64(storeStats().Hits) })
	m.reg.CounterFunc("cnnperfd_store_misses_total", "Artifact store disk misses.",
		func() float64 { return float64(storeStats().Misses) })
	m.reg.CounterFunc("cnnperfd_store_puts_total", "Artifact store records written.",
		func() float64 { return float64(storeStats().Puts) })
	m.reg.CounterFunc("cnnperfd_store_corrupt_total",
		"Corrupt artifact records quarantined by the store.",
		func() float64 { return float64(storeStats().Corrupt) })
	m.reg.CounterFunc("cnnperfd_store_decode_errors_total",
		"Stored artifacts that failed to decode and were recomputed.",
		func() float64 { return float64(tier.DecodeErrors()) })
}

// record counts one served request.
func (m *metrics) record(endpoint string, status int, d time.Duration) {
	m.requests.With(endpoint, frontend.StatusClass(status)).Inc()
	m.latency.With(endpoint).Observe(d.Seconds())
}
