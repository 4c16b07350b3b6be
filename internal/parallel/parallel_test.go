package parallel

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachVisitsEveryIndex checks that every index runs exactly once
// for several worker counts, including the GOMAXPROCS default.
func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 100
		var counts [n]atomic.Int32
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachEmpty checks the n <= 0 fast path.
func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachFirstError checks that a failing item aborts the pool: its
// error is returned and no new items start after cancellation.
func TestForEachFirstError(t *testing.T) {
	boom := fmt.Errorf("boom")
	var started atomic.Int32
	err := ForEach(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s == 1000 {
		t.Fatalf("pool did not stop early: all %d items started", s)
	}
}

// TestForEachParentCancellation checks that cancelling the parent context
// stops the pool and surfaces the context error.
func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	errc := make(chan error, 1)
	go func() {
		errc <- ForEach(ctx, 2, 1_000_000, func(ctx context.Context, i int) error {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	for ran.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if r := ran.Load(); r == 1_000_000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

// TestForEachLeaksNoGoroutines checks that both the success and the
// error path wind every worker down.
func TestForEachLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_ = ForEach(context.Background(), 8, 50, func(_ context.Context, i int) error {
			if i == 25 {
				return fmt.Errorf("fail")
			}
			return nil
		})
		_ = ForEach(context.Background(), 8, 50, func(context.Context, int) error { return nil })
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestWorkersDefault checks the knob resolution.
func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

// TestForEachRecoversPanic: the per-call ForEach turns a panic into its
// returned error the same way.
func TestForEachRecoversPanic(t *testing.T) {
	err := ForEach(context.Background(), 2, 4, func(_ context.Context, i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 2: panic: boom") || !strings.Contains(err.Error(), "TestForEachRecoversPanic") {
		t.Fatalf("got %v, want the panic value and its site", err)
	}
}
