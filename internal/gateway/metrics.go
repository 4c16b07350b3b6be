package gateway

import (
	"time"

	"cnnperf/internal/frontend"
	"cnnperf/internal/obs"
)

// gwMetrics is the gateway telemetry: one obs.Registry rendering the
// cnnperfd_gw_* families as Prometheus text on /metrics. Per-backend
// series are pre-registered at construction so every backend shows
// zero counts before its first request.
type gwMetrics struct {
	start time.Time
	reg   *obs.Registry

	requests     *obs.CounterVec   // proxied responses by backend and status class
	proxyLatency *obs.HistogramVec // per-attempt proxy latency by backend, seconds
	transport    *obs.CounterVec   // connection/transport failures by backend
	probes       *obs.CounterVec   // health probes by backend and result (ok|fail)
	ejections    *obs.CounterVec   // unhealthy ejections by backend
	readmissions *obs.CounterVec   // recovered re-admissions by backend
	healthy      *obs.GaugeVec     // 1 healthy / 0 ejected, by backend
	retries      *obs.Counter      // extra attempts after a transport failure
	drainRetries *obs.Counter      // re-routes of a draining backend's 503
	noBackend    *obs.Counter      // requests refused because the ring was empty
	rejected     *obs.Counter      // requests refused while the gateway drained
	inFlight     *obs.Gauge
}

func newGwMetrics(ring *Ring, backends []string) *gwMetrics {
	reg := obs.NewRegistry()
	m := &gwMetrics{
		start: time.Now(),
		reg:   reg,
		requests: reg.CounterVec("cnnperfd_gw_requests_total",
			"Proxied responses by backend and status class.", "backend", "code"),
		proxyLatency: reg.HistogramVec("cnnperfd_gw_proxy_duration_seconds",
			"Per-attempt proxy latency by backend.", frontend.LatencyBounds, "backend"),
		transport: reg.CounterVec("cnnperfd_gw_transport_errors_total",
			"Proxy attempts that failed before an HTTP response (connection refused, reset, timeout).", "backend"),
		probes: reg.CounterVec("cnnperfd_gw_health_probes_total",
			"Health probes by backend and result.", "backend", "result"),
		ejections: reg.CounterVec("cnnperfd_gw_ejections_total",
			"Backends ejected from the ring after consecutive probe failures.", "backend"),
		readmissions: reg.CounterVec("cnnperfd_gw_readmissions_total",
			"Ejected backends re-admitted after consecutive probe successes.", "backend"),
		healthy: reg.GaugeVec("cnnperfd_gw_backend_healthy",
			"Backend health: 1 in the ring, 0 ejected or draining.", "backend"),
		retries: reg.Counter("cnnperfd_gw_retries_total",
			"Extra proxy attempts made after a transport failure."),
		drainRetries: reg.Counter("cnnperfd_gw_drain_retries_total",
			"Requests re-routed to another replica after a draining 503."),
		noBackend: reg.Counter("cnnperfd_gw_no_backend_total",
			"Requests refused because no healthy backend was available."),
		rejected: reg.Counter("cnnperfd_gw_rejected_total",
			"Requests refused while the gateway was draining."),
		inFlight: reg.Gauge("cnnperfd_gw_in_flight_requests",
			"Requests currently being proxied or served."),
	}
	for _, b := range backends {
		for _, class := range frontend.StatusClasses {
			m.requests.With(b, class)
		}
		m.proxyLatency.With(b)
		m.transport.With(b)
		m.probes.With(b, "ok")
		m.probes.With(b, "fail")
		m.ejections.With(b)
		m.readmissions.With(b)
		m.healthy.With(b).Set(1)
	}
	reg.GaugeFunc("cnnperfd_gw_ring_size",
		"Backends currently in the consistent-hash ring.",
		func() float64 { return float64(ring.Size()) })
	reg.GaugeFunc("cnnperfd_gw_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// record counts one forwarded response.
func (m *gwMetrics) record(backend string, status int, d time.Duration) {
	m.requests.With(backend, frontend.StatusClass(status)).Inc()
	m.proxyLatency.With(backend).Observe(d.Seconds())
}
