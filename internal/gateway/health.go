package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cnnperf/internal/frontend"
	"cnnperf/internal/obs"
)

// backendState is the per-replica health and draining state machine.
//
//	healthy --(FailThreshold consecutive probe failures)--> ejected
//	ejected --(ReviveThreshold consecutive probe successes)--> healthy
//	any     --(RemoveBackend)--> draining (terminal; never probed back in)
//
// Backends start healthy and in the ring: a gateway must serve the
// moment it boots, and a genuinely dead backend is caught either by
// the first probe round or by the request retry path, whichever runs
// first.
type backendState struct {
	url string
	// gate admits the in-flight proxied requests; RemoveBackend drains
	// it, and a draining backend is skipped by the router and the
	// prober alike.
	gate frontend.Gate

	mu         sync.Mutex
	healthy    bool
	consecFail int
	consecOK   int
}

func newBackendState(url string) *backendState {
	return &backendState{url: url, healthy: true}
}

// probeResult applies one health-probe outcome and reports the state
// transition it caused, if any.
type transition int

const (
	noTransition transition = iota
	ejected
	readmitted
)

func (b *backendState) probeResult(ok bool, failThreshold, reviveThreshold int) transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gate.Draining() {
		return noTransition
	}
	if ok {
		b.consecFail = 0
		b.consecOK++
		if !b.healthy && b.consecOK >= reviveThreshold {
			b.healthy = true
			return readmitted
		}
		return noTransition
	}
	b.consecOK = 0
	b.consecFail++
	if b.healthy && b.consecFail >= failThreshold {
		b.healthy = false
		return ejected
	}
	return noTransition
}

// reportTransportFailure feeds a request-path connection failure into
// the same counter a failed probe would bump, so a dead backend is
// ejected after FailThreshold failed requests even between probe
// rounds. Request successes deliberately do not feed back: only the
// prober (which checks /healthz, not an arbitrary handler) may
// re-admit.
func (b *backendState) reportTransportFailure(failThreshold int) transition {
	return b.probeResult(false, failThreshold, 1)
}

func (b *backendState) snapshot() (healthy, draining bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.gate.Draining()
}

// probeLoop probes every backend each interval until ctx is done.
func (g *Gateway) probeLoop(ctx context.Context) {
	defer close(g.probeDone)
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.probeAll(ctx)
		}
	}
}

// probeAll runs one probe round over all backends in parallel and
// applies ejections/re-admissions to the ring.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.backendList {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			g.probeOne(ctx, b)
		}(b)
	}
	wg.Wait()
}

func (g *Gateway) probeOne(ctx context.Context, b *backendState) {
	if _, draining := b.snapshot(); draining {
		return
	}
	ok := g.probe(ctx, b.url)
	result := "ok"
	if !ok {
		result = "fail"
	}
	g.metrics.probes.With(b.url, result).Inc()
	g.applyTransition(b, b.probeResult(ok, g.cfg.FailThreshold, g.cfg.ReviveThreshold))
}

// applyTransition moves a backend in or out of the ring to match a
// state-machine transition.
func (g *Gateway) applyTransition(b *backendState, t transition) {
	switch t {
	case ejected:
		g.ring.Remove(b.url)
		g.metrics.ejections.With(b.url).Inc()
		g.metrics.healthy.With(b.url).Set(0)
		g.cfg.Logger.Warn("backend ejected", obs.String("backend", b.url))
	case readmitted:
		g.ring.Add(b.url)
		g.metrics.readmissions.With(b.url).Inc()
		g.metrics.healthy.With(b.url).Set(1)
		g.cfg.Logger.Info("backend readmitted", obs.String("backend", b.url))
	}
}

// probe issues one GET /healthz with the probe timeout.
func (g *Gateway) probe(ctx context.Context, backend string) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Drain a bounded amount so the connection is reusable.
	_, _ = io.CopyN(io.Discard, resp.Body, 4096)
	return resp.StatusCode == http.StatusOK
}

// RemoveBackend gracefully drains one replica out of the fleet: it
// leaves the ring immediately (no new requests route to it), in-flight
// proxied requests finish (bounded by ctx), and the prober never
// re-admits it. Unknown backends are an error.
func (g *Gateway) RemoveBackend(ctx context.Context, backend string) error {
	b, ok := g.backends[backend]
	if !ok {
		return fmt.Errorf("gateway: unknown backend %q", backend)
	}
	g.ring.Remove(backend)
	g.metrics.healthy.With(backend).Set(0)
	g.cfg.Logger.Info("backend draining", obs.String("backend", backend))
	if err := b.gate.Drain(ctx); err != nil {
		return fmt.Errorf("gateway: draining %s: %w", backend, err)
	}
	return nil
}
