package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a long-lived bounded worker pool: a fixed set of goroutines
// started once and shared by every caller for the life of the process.
// Where ForEach spawns workers per call, a Pool bounds the *total*
// analysis parallelism across concurrent callers — the serving daemon
// runs one process-wide Pool so a burst of overlapping requests cannot
// multiply into unbounded analysis goroutines.
type Pool struct {
	tasks chan func()
	quit  chan struct{}
	wg    sync.WaitGroup

	closeOnce sync.Once
	size      int

	// Utilization counters for the metrics endpoint: how many workers
	// are executing a task right now, and how many tasks have completed
	// since the pool started. Lock-free so polling never contends with
	// the dispatch path.
	active    atomic.Int64
	completed atomic.Int64
}

// PoolStats is a point-in-time snapshot of a pool's utilization.
type PoolStats struct {
	// Size is the fixed worker count.
	Size int
	// Active is the number of workers currently running a task.
	Active int
	// Completed is the number of tasks finished since the pool started.
	Completed int64
}

// NewPool starts a pool of workers goroutines (<= 0 selects GOMAXPROCS).
// Callers must Close the pool when done with it.
func NewPool(workers int) *Pool {
	n := Workers(workers)
	p := &Pool{
		tasks: make(chan func()),
		quit:  make(chan struct{}),
		size:  n,
	}
	p.wg.Add(n)
	for range n {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case fn := <-p.tasks:
					fn()
				}
			}
		}()
	}
	return p
}

// Size reports the number of pool workers.
func (p *Pool) Size() int { return p.size }

// Stats returns a lock-free utilization snapshot.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Size:      p.size,
		Active:    int(p.active.Load()),
		Completed: p.completed.Load(),
	}
}

// ForEach runs fn(ctx, i) for every i in [0, n) on the pool's shared
// workers, with the same contract as the package-level ForEach: the
// first error cancels the derived context, unstarted items are skipped,
// and the call returns only after every started item has finished. A
// panicking item counts as that item's error, which wraps a
// *PanicError; the worker survives it.
// When the pool is saturated by other callers, submission blocks until
// a worker frees up (or ctx is cancelled). fn must not call ForEach on
// the same pool — nested fan-out on a full pool would deadlock.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		task := func() {
			p.active.Add(1)
			// Count the task before releasing the caller, so a caller
			// that has returned sees its own tasks in Stats.
			defer func() {
				p.active.Add(-1)
				p.completed.Add(1)
				wg.Done()
			}()
			if ctx.Err() != nil {
				return
			}
			if err := call(ctx, i, fn); err != nil {
				fail(err)
			}
		}
		wg.Add(1)
		select {
		case p.tasks <- task:
		case <-ctx.Done():
			wg.Done()
		case <-p.quit:
			wg.Done()
			fail(fmt.Errorf("parallel: pool is closed"))
		}
		if ctx.Err() != nil && firstErr == nil {
			// Parent cancellation: stop submitting, drain what started.
			break
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Close stops the workers after their in-flight tasks finish and waits
// for them to exit. Close is idempotent; ForEach calls racing with
// Close fail with a pool-closed error rather than hanging.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
}
