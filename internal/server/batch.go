package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"unsafe"

	"cnnperf/internal/core"
	"cnnperf/internal/obs"
)

// A predictUnit is the analysis work behind one /v1/predict request,
// independent of which GPUs it asks about: the model (or PTX) analysis
// plus the estimator that scores it. Requests naming the same unit
// share one computation.
type predictUnit struct {
	// key content-addresses the unit for memoization and routing.
	key string
	// model is the zoo model name; empty for raw-PTX units.
	model string
	// src and ptxOpts carry a raw-PTX payload.
	src     string
	ptxOpts core.PTXOptions
}

func modelUnit(name string) predictUnit {
	return predictUnit{key: "model\x00" + name, model: name}
}

func ptxUnit(src string, opts core.PTXOptions) predictUnit {
	// Key the launch shape the analysis runs, so an omitted grid and its
	// explicit default name one unit.
	opts.GridX, opts.BlockX = opts.Grid()
	// The hash reads the body in place: []byte(src) would copy it, and
	// Sum256 only reads its input.
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
	key := fmt.Sprintf("ptx\x00%s\x00%d\x00%d\x00%d", hex.EncodeToString(sum[:]),
		opts.TrainableParams, opts.GridX, opts.BlockX)
	return predictUnit{key: key, src: src, ptxOpts: opts}
}

// ContentKey returns the content key of a predict request: the exact
// key the server memoizes and coalesces analyses under. The
// gateway consistent-hashes on it, so every request for one unit of
// work lands on the replica that already holds (or is computing) that
// unit. Requests that fail validation still get a stable key.
func (r PredictRequest) ContentKey() string {
	if r.Model != "" && r.PTX == "" {
		return modelUnit(r.Model).key
	}
	return ptxUnit(r.PTX, core.PTXOptions{
		TrainableParams: r.TrainableParams,
		GridX:           r.GridX,
		BlockX:          r.BlockX,
	}).key
}

// ContentKey returns the routing key of a lint request. Lint work is
// not memoized, but keying by the same content identity gives lint
// requests the same replica affinity (and therefore the same warm
// parse/compile caches) as predictions for the same payload.
func (r LintRequest) ContentKey() string {
	if r.Model != "" && r.PTX == "" {
		return "lint\x00model\x00" + r.Model
	}
	sum := sha256.Sum256([]byte(r.PTX))
	return "lint\x00ptx\x00" + hex.EncodeToString(sum[:])
}

// unitResult pairs the memoized analysis with the estimator scoring it.
type unitResult struct {
	est *core.Estimator
	a   *core.ModelAnalysis
	err error
}

// memoKey is the cache key a unit's whole result is memoized under.
func (u predictUnit) memoKey() string {
	return "srv\x00unit\x00" + u.key
}

// memoized returns the unit's result if it is resident in the cache,
// without taking a worker. Only successful results are ever memoized,
// so a failing unit always misses here.
func (s *Server) memoized(u predictUnit) (unitResult, bool) {
	v, ok := s.cache.Resident(u.memoKey())
	if !ok {
		return unitResult{}, false
	}
	return v.(unitResult), true
}

// runDetached runs a unit that missed the memo under the server context
// plus the request timeout. A client that leaves or hits its own
// deadline is answered at once, but cannot cancel work a singleflight
// follower or the cache still wants. The request's observability
// identity is transplanted so analysis spans land on its trace, and its
// tracer stays pinned until the work ends, so the flight recorder never
// recycles a tracer that is still written into.
func (s *Server) runDetached(ctx context.Context, u predictUnit) (unitResult, error) {
	t := obs.TracerFrom(ctx)
	t.Acquire()
	done := make(chan unitResult, 1) // buffered: the worker never blocks
	go func() {
		defer t.Release()
		uctx, cancel := context.WithTimeout(obs.Transplant(s.baseCtx, ctx), s.cfg.Timeout)
		defer cancel()
		done <- s.runUnit(uctx, u)
	}()
	select {
	case res := <-done:
		return res, nil
	case <-ctx.Done():
		return unitResult{}, ctx.Err()
	}
}

// runUnit computes one unit, memoized whole in the process-wide cache:
// repeated identical requests reuse the exact same analysis and
// estimator objects, which is what makes repeated responses
// byte-identical. Concurrent misses on one key share a single
// computation (the cache's singleflight). Only that computation takes a
// slot of the shared pool, so followers wait without holding a worker
// and distinct analyses stay bounded by the pool size.
func (s *Server) runUnit(ctx context.Context, u predictUnit) unitResult {
	v, _, err := s.cache.GetOrCompute(u.memoKey(), func() (any, error) {
		var res unitResult
		err := s.pool.ForEach(ctx, 1, func(ctx context.Context, _ int) error {
			res = s.computeUnit(ctx, u)
			return res.err
		})
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	if err != nil {
		return unitResult{err: err}
	}
	return v.(unitResult)
}

func (s *Server) computeUnit(ctx context.Context, u predictUnit) unitResult {
	// The estimator is keyed separately: every raw-PTX unit shares the
	// full-inventory estimator, and leave-one-out estimators are shared
	// across repeats after an eviction of the unit entry. The key is the
	// content key of core.EstimatorKey ("est:..."), which routes the
	// trained model through the persistent artifact tier when one is
	// configured — the biggest single cold-start saving.
	exclude := u.model
	estKey := core.EstimatorKey(exclude, s.pipeline)
	ev, _, err := s.cache.GetOrCompute(estKey, func() (any, error) {
		return core.LeaveOneOutEstimatorContext(ctx, exclude, s.pipeline)
	})
	if err != nil {
		return unitResult{err: err}
	}
	var a *core.ModelAnalysis
	if u.model != "" {
		a, err = core.AnalyzeCNNContext(ctx, u.model, s.pipeline)
	} else {
		opts := u.ptxOpts
		opts.MaxSteps = s.cfg.PTXMaxSteps
		a, err = core.AnalyzePTXContext(ctx, u.src, opts, s.pipeline)
	}
	if err != nil {
		return unitResult{err: err}
	}
	return unitResult{est: ev.(*core.Estimator), a: a}
}
