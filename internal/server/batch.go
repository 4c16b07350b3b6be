package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"cnnperf/internal/core"
	"cnnperf/internal/obs"
)

// A predictUnit is the analysis work behind one /v1/predict request,
// independent of which GPUs it asks about: the model (or PTX) analysis
// plus the estimator that scores it. Requests naming the same unit
// share one computation.
type predictUnit struct {
	// key content-addresses the unit for coalescing and caching.
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
	sum := sha256.Sum256([]byte(src))
	key := fmt.Sprintf("ptx\x00%s\x00%d\x00%d\x00%d", hex.EncodeToString(sum[:]),
		opts.TrainableParams, opts.GridX, opts.BlockX)
	return predictUnit{key: key, src: src, ptxOpts: opts}
}

// ContentKey returns the batching dedupe key of a predict request: the
// exact key the server coalesces and caches analyses under. The
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
// not batched, but keying by the same content identity gives lint
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
// without entering the batcher. Only successful results are ever
// memoized, so a failing unit always misses here.
func (s *Server) memoized(u predictUnit) (unitResult, bool) {
	v, ok := s.cache.Resident(u.memoKey())
	if !ok {
		return unitResult{}, false
	}
	return v.(unitResult), true
}

// runUnit computes one unit, memoized whole in the process-wide cache:
// repeated identical requests reuse the exact same analysis and
// estimator objects, which is what makes repeated responses
// byte-identical. Concurrent misses on one key share a single
// computation (the cache's singleflight).
func (s *Server) runUnit(ctx context.Context, u predictUnit) unitResult {
	v, _, err := s.cache.GetOrCompute(u.memoKey(), func() (any, error) {
		res := s.computeUnit(ctx, u)
		if res.err != nil {
			return nil, res.err
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

// batcher coalesces concurrent predictions into bounded analysis
// batches: the first job in an empty batch opens a short window, and
// the batch executes when the window lapses or MaxBatch jobs have
// joined. One batch deduplicates jobs by unit key and fans the
// distinct units out over the server's shared worker pool, so a burst
// of identical requests costs one analysis and a mixed burst is
// bounded by the pool size, not the request count.
type batcher struct {
	s      *Server
	window time.Duration
	max    int

	mu      sync.Mutex
	pending []*predictJob
	timer   *time.Timer
	closed  bool
}

type predictJob struct {
	unit predictUnit
	done chan unitResult // buffered(1); the batch goroutine never blocks

	// obsCtx carries the submitting request's observability identity
	// (tracer, span, request id). The batch transplants it onto its own
	// context so analysis spans land on the request's trace even though
	// the work runs detached under the server context. tracer is pinned
	// (Acquire) until the job is delivered, so the flight recorder never
	// recycles a tracer the batch still writes into.
	obsCtx context.Context
	tracer *obs.Tracer
}

// release unpins the job's tracer once the batch is done with it.
func (j *predictJob) release() {
	if j.tracer != nil {
		j.tracer.Release()
		j.tracer = nil
	}
	j.obsCtx = nil
}

func newBatcher(s *Server, window time.Duration, max int) *batcher {
	return &batcher{s: s, window: window, max: max}
}

// submit enqueues a unit and waits for its result (or ctx).
func (b *batcher) submit(ctx context.Context, u predictUnit) (unitResult, error) {
	j := &predictJob{unit: u, done: make(chan unitResult, 1)}
	if t := obs.TracerFrom(ctx); t != nil {
		t.Acquire()
		j.tracer = t
		j.obsCtx = ctx
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		j.release()
		return unitResult{}, fmt.Errorf("server: batcher is closed")
	}
	b.pending = append(b.pending, j)
	if len(b.pending) >= b.max {
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.run(batch)
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.window, b.flush)
		}
		b.mu.Unlock()
	}
	select {
	case res := <-j.done:
		return res, nil
	case <-ctx.Done():
		// The batch keeps running under the server context; its result
		// lands in the cache for the next caller.
		return unitResult{}, ctx.Err()
	}
}

// flush executes whatever the window collected.
func (b *batcher) flush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.run(batch)
	}
}

// takeLocked detaches the pending batch; the caller holds the lock.
func (b *batcher) takeLocked() []*predictJob {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// run executes one batch: dedupe by unit key, fan the distinct units
// over the shared pool, deliver every job its unit's result. Units
// fail independently — one bad payload in a batch cannot fail its
// neighbours.
func (b *batcher) run(batch []*predictJob) {
	b.s.metrics.recordBatch(len(batch))
	ctx, cancel := context.WithTimeout(b.s.baseCtx, b.s.cfg.Timeout)
	defer cancel()

	index := make(map[string]int, len(batch))
	var distinct []predictUnit
	var obsCtxs []context.Context
	for _, j := range batch {
		if _, ok := index[j.unit.key]; !ok {
			index[j.unit.key] = len(distinct)
			distinct = append(distinct, j.unit)
			// The first job's trace owns the unit's analysis spans; jobs
			// deduplicated onto the same unit share the result but not
			// the spans (one computation, one recording).
			obsCtxs = append(obsCtxs, j.obsCtx)
		}
	}
	results := make([]unitResult, len(distinct))
	// Errors stay inside their unit's result slot, so ForEach never
	// cancels the batch.
	poolErr := b.s.pool.ForEach(ctx, len(distinct), func(ctx context.Context, i int) error {
		uctx := ctx
		if obsCtxs[i] != nil {
			uctx = obs.Transplant(ctx, obsCtxs[i])
		}
		results[i] = b.s.runUnit(uctx, distinct[i])
		return nil
	})
	for i := range results {
		// A slot a cancelled/closed pool never filled must still carry
		// an error, not a nil estimator.
		if results[i].est == nil && results[i].err == nil {
			err := poolErr
			if err == nil {
				err = fmt.Errorf("server: batch aborted")
			}
			results[i].err = err
		}
	}
	for _, j := range batch {
		j.done <- results[index[j.unit.key]]
		j.release()
	}
}

// close fails any still-pending jobs and refuses new ones. Called
// after the drain gate has emptied, so normally nothing is pending.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	for _, j := range batch {
		j.done <- unitResult{err: fmt.Errorf("server: shutting down")}
		j.release()
	}
}
