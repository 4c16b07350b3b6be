package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForEachRunsEveryItem(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran [50]atomic.Int32
	err := p.ForEach(context.Background(), len(ran), func(_ context.Context, i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("item %d ran %d times", i, got)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var inflight, peak atomic.Int32
	err := p.ForEach(context.Background(), 30, func(_ context.Context, i int) error {
		cur := inflight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, workers)
	}
}

// TestPoolSharedAcrossCallers has several goroutines fan out on one pool
// concurrently; the global peak must still respect the pool bound.
func TestPoolSharedAcrossCallers(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var inflight, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.ForEach(context.Background(), 10, func(_ context.Context, i int) error {
				cur := inflight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inflight.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, workers)
	}
}

func TestPoolFirstErrorCancels(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var started atomic.Int32
	zeroStarted := make(chan struct{})
	// Item 0 holds one worker until the run is cancelled, and item 1
	// fails only once item 0 is running, so both workers are busy until
	// the error: items 0 and 1 are the only ones that can start, and
	// every later item finds the run cancelled.
	err := p.ForEach(context.Background(), 100, func(ctx context.Context, i int) error {
		started.Add(1)
		switch i {
		case 0:
			close(zeroStarted)
		case 1:
			<-zeroStarted
			return fmt.Errorf("boom at %d", i)
		}
		<-ctx.Done()
		return nil
	})
	if err == nil || err.Error() != "boom at 1" {
		t.Fatalf("want first error, got %v", err)
	}
	if n := started.Load(); n != 2 {
		t.Fatalf("error did not stop submissions: %d items started, want 2", n)
	}
}

func TestPoolParentCancellation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- p.ForEach(ctx, 1000, func(ctx context.Context, i int) error {
			started.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled ForEach returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatal("cancellation did not stop submissions")
	}
}

func TestPoolCloseUnblocksForEach(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	go p.ForEach(context.Background(), 1, func(_ context.Context, _ int) error {
		<-release
		return nil
	})
	time.Sleep(5 * time.Millisecond) // let the blocker occupy the only worker
	done := make(chan error, 1)
	go func() {
		done <- p.ForEach(context.Background(), 4, func(_ context.Context, _ int) error { return nil })
	}()
	time.Sleep(5 * time.Millisecond)
	close(release)
	p.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach hung across Close")
	}
	p.Close() // idempotent
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	if err := p.ForEach(context.Background(), 16, func(_ context.Context, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// explode panics with an index out of range, like a bug in analysis code.
func explode(i int) error {
	var empty []int
	return fmt.Errorf("unreachable %d", empty[i])
}

// TestPoolRecoversPanic: a panicking task fails its ForEach call with an
// error naming the panic value and the panicking function, and the same
// pool keeps serving later calls.
func TestPoolRecoversPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	err := p.ForEach(context.Background(), 8, func(_ context.Context, i int) error {
		if i == 5 {
			return explode(i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking task returned no error")
	}
	for _, want := range []string{"item 5: panic:", "index out of range", "parallel.explode", "pool_test.go:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Site, "parallel.explode") {
		t.Errorf("error %q does not carry a *PanicError sited at explode", err)
	}
	var ran atomic.Int32
	if err := p.ForEach(context.Background(), 20, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("pool unusable after a panic: %v", err)
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("later ForEach ran %d of 20 items", got)
	}
}
