// Package parallel provides the bounded worker pool the analysis
// pipeline fans out on: N independent work items are distributed over a
// fixed number of goroutines with context cancellation and first-error
// propagation. Callers write results into index-addressed slots, so the
// assembled output is in deterministic input order regardless of the
// worker count or scheduling.
package parallel

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 mean
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS). The first error cancels
// the shared context, no new items are started, and that error is
// returned once every in-flight item has finished — ForEach never leaks
// a goroutine. A panicking item counts as that item's error, which
// wraps a *PanicError. If the parent context is cancelled, the context
// error is returned. fn must confine its writes to the item's own
// result slot.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := call(ctx, i, fn); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// call runs fn(ctx, i), turning a panic into a *PanicError wrapped with
// the item index: a fault in one work item fails its ForEach call
// instead of killing the process.
func call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: item %d: %w", i, Recovered(r))
		}
	}()
	return fn(ctx, i)
}

// PanicError is a recovered panic: its value and the frame that raised
// it. Callers that answer clients tell it apart from an ordinary error
// with errors.As — it marks a fault in the program, not in the input.
type PanicError struct {
	Value any
	// Site is the innermost non-runtime frame of the panicking stack,
	// as "function file.go:line".
	Site string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v (at %s)", e.Value, e.Site)
}

// Recovered turns a value returned by recover into a *PanicError. It
// must be called from the deferred function that recovered, while the
// panicking frames are still on the stack. A value that already is a
// *PanicError (one re-raised by an outer layer) is returned unchanged,
// so the original site survives.
func Recovered(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Site: panicSite()}
}

// panicSite names the innermost non-runtime frame below runtime.gopanic
// on the current goroutine's stack.
func panicSite() string {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	inPanic := false
	for {
		f, more := frames.Next()
		switch {
		case f.Function == "runtime.gopanic":
			inPanic = true
		case inPanic && !strings.HasPrefix(f.Function, "runtime."):
			return fmt.Sprintf("%s %s:%d", f.Function, filepath.Base(f.File), f.Line)
		}
		if !more {
			return "unknown frame"
		}
	}
}
