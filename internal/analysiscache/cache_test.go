package analysiscache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnnperf/internal/parallel"
)

func TestGetPutCounters(t *testing.T) {
	c := New(0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %t; want 1, true", v, ok)
	}
	c.Put("a", 2) // overwrite in place
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("overwrite lost: got %v", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 2.0/3.0 {
		t.Fatalf("hit rate = %f", got)
	}
	want := "hits=2 misses=1 evictions=0 entries=1 hit_rate=66.7%"
	if s.String() != want {
		t.Fatalf("String() = %q, want %q", s.String(), want)
	}

	// Resident on a resident key counts one hit and refreshes the LRU
	// position; on an absent key it counts nothing at all.
	c.Put("b", 3) // b is now the most recently used
	if v, ok := c.Resident("a"); !ok || v.(int) != 2 {
		t.Fatalf("Resident(a) = %v, %t; want 2, true", v, ok)
	}
	if front := c.lru.Front().Value.(*entry).key; front != "a" {
		t.Fatalf("LRU front after Resident(a) = %q, want a", front)
	}
	if v, ok := c.Resident("z"); ok {
		t.Fatalf("Resident(z) = %v on an absent key", v)
	}
	s = c.Stats()
	if s.Hits != 3 || s.Misses != 1 || s.Entries != 2 {
		t.Fatalf("stats after Resident = %+v; want hits=3 misses=1 entries=2", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recently used
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh entry c was evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c := New(0)
	const goroutines = 16
	var computed atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				computed.Add(1)
				<-release // hold every concurrent caller in the miss window
				return "value", nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New(0)
	calls := 0
	fail := func() (any, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error cached as success")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
	if _, _, err := c.GetOrCompute("k", func() (any, error) { return 7, nil }); err != nil {
		t.Fatalf("recovery compute failed: %v", err)
	}
	if v, ok := c.Get("k"); !ok || v.(int) != 7 {
		t.Fatalf("recovered value not cached: %v, %t", v, ok)
	}
}

// TestGetOrComputePanicReleasesKey: a compute that panics re-raises the
// panic in its own caller, hands it to every waiter as a
// *parallel.PanicError, and frees the key, so the next lookup computes
// afresh instead of waiting on a call that will never finish.
func TestGetOrComputePanicReleasesKey(t *testing.T) {
	c := New(0)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.GetOrCompute("k", func() (any, error) {
			close(started)
			<-release
			var empty []int
			return empty[3], nil
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute("k", func() (any, error) { return "unreachable", nil })
		waiter <- err
	}()
	for c.Stats().Waits == 0 {
		runtime.Gosched()
	}
	close(release)

	var pe *parallel.PanicError
	if r := <-leader; r == nil {
		t.Fatal("leader's panic was swallowed")
	} else if p, ok := r.(*parallel.PanicError); !ok || !strings.Contains(p.Site, "TestGetOrComputePanicReleasesKey") {
		t.Fatalf("leader recovered %v, want a *parallel.PanicError sited in the compute", r)
	}
	select {
	case err := <-waiter:
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("waiter got %v, want the panic as a *parallel.PanicError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the panicked computation")
	}

	next := make(chan any, 1)
	go func() {
		v, hit, err := c.GetOrCompute("k", func() (any, error) { return 7, nil })
		if hit || err != nil {
			t.Errorf("after the panic: hit=%t err=%v, want a fresh computation", hit, err)
		}
		next <- v
	}()
	select {
	case v := <-next:
		if v != 7 {
			t.Fatalf("after the panic got %v, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup after the panic blocked on the dead in-flight entry")
	}
}

func TestReset(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	c.Get("a")
	c.Reset()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived reset")
	}
}

func TestResetDuringInflight(t *testing.T) {
	c := New(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.GetOrCompute("k", func() (any, error) {
			close(entered)
			<-release
			return "stale", nil
		})
		if err != nil {
			t.Errorf("GetOrCompute: %v", err)
		}
	}()
	<-entered
	c.Reset()
	close(release)
	<-done
	// The pre-reset computation must not repopulate the emptied cache.
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale in-flight result cached across Reset")
	}
}
