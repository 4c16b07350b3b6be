package analysiscache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTier is an in-memory SecondTier with observable call counts and
// an optional gate that blocks Get until released, simulating slow disk.
type fakeTier struct {
	mu   sync.Mutex
	data map[string]any

	gets atomic.Int64
	puts atomic.Int64
	gate chan struct{} // when non-nil, Get blocks until closed
}

func newFakeTier() *fakeTier {
	return &fakeTier{data: map[string]any{}}
}

func (t *fakeTier) Get(key string) (any, bool) {
	t.gets.Add(1)
	if t.gate != nil {
		<-t.gate
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.data[key]
	return v, ok
}

func (t *fakeTier) Put(key string, v any) {
	t.puts.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.data[key] = v
}

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to its start-of-test level (modulo runtime noise) by the end.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at start, %d after", before, runtime.NumGoroutine())
	})
}

func TestSecondTierDiskHit(t *testing.T) {
	c := New(0)
	tier := newFakeTier()
	tier.data["k1"] = "from disk"
	c.SetSecondTier(tier)

	computed := 0
	v, hit, err := c.GetOrCompute("k1", func() (any, error) {
		computed++
		return "computed", nil
	})
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if v != "from disk" {
		t.Fatalf("got %v, want the disk value", v)
	}
	if computed != 0 {
		t.Fatal("compute ran despite a disk hit")
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats after disk hit = %+v", st)
	}
	// Now resident in memory: the tier is not probed again.
	if _, hit, _ := c.GetOrCompute("k1", nil); !hit {
		t.Fatal("second lookup missed memory")
	}
	if n := tier.gets.Load(); n != 1 {
		t.Errorf("tier probed %d times, want 1", n)
	}
}

func TestSecondTierWriteThroughAndEvictionReload(t *testing.T) {
	c := New(1) // capacity 1 forces eviction
	tier := newFakeTier()
	c.SetSecondTier(tier)

	if _, _, err := c.GetOrCompute("k1", func() (any, error) { return 111, nil }); err != nil {
		t.Fatal(err)
	}
	if n := tier.puts.Load(); n != 1 {
		t.Fatalf("write-through puts = %d, want 1", n)
	}
	// Evict k1 by inserting k2.
	if _, _, err := c.GetOrCompute("k2", func() (any, error) { return 222, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// k1 comes back from the tier, not from compute.
	v, _, err := c.GetOrCompute("k1", func() (any, error) {
		t.Error("compute ran for a value the tier holds")
		return nil, nil
	})
	if err != nil || v != 111 {
		t.Fatalf("reload after eviction: v=%v err=%v", v, err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
	// Errors are never written through.
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k3", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := tier.data["k3"]; ok {
		t.Error("failed computation written to the tier")
	}
}

// TestSecondTierSlowDiskSingleflight proves the singleflight still
// coalesces when the disk tier is slow: many concurrent callers of one
// key produce exactly one tier probe and zero computes, and nobody
// leaks.
func TestSecondTierSlowDiskSingleflight(t *testing.T) {
	checkNoGoroutineLeak(t)
	c := New(0)
	tier := newFakeTier()
	tier.data["k1"] = "slow disk value"
	tier.gate = make(chan struct{})
	c.SetSecondTier(tier)

	const callers = 32
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]any, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = c.GetOrCompute("k1", func() (any, error) {
				computes.Add(1)
				return "computed", nil
			})
		}(i)
	}
	close(start)
	// Let the callers pile up behind the gated disk read, then open it.
	time.Sleep(50 * time.Millisecond)
	close(tier.gate)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != "slow disk value" {
			t.Fatalf("caller %d got %v", i, results[i])
		}
	}
	if n := tier.gets.Load(); n != 1 {
		t.Errorf("slow disk probed %d times, want 1 (singleflight broken)", n)
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("compute ran %d times despite the tier holding the value", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 disk hit", st)
	}
	if st.Hits != callers-1 || st.Waits != callers-1 {
		t.Errorf("stats = %+v, want %d waiting hits", st, callers-1)
	}
}

// TestSecondTierCancellationDoesNotPoison cancels a caller while its
// singleflight is stuck in a slow disk read and checks the cache is not
// poisoned: the cancelled computation's error is not cached, and the
// next caller gets a fresh, successful computation.
func TestSecondTierCancellationDoesNotPoison(t *testing.T) {
	checkNoGoroutineLeak(t)
	c := New(0)
	tier := newFakeTier()
	tier.gate = make(chan struct{})
	c.SetSecondTier(tier)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The compute function observes its context the way pipeline
		// computations do: a cancelled ctx fails this computation.
		_, _, err := c.GetOrCompute("k1", func() (any, error) {
			return nil, ctx.Err()
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine block on the gated disk read
	cancel()
	close(tier.gate) // disk read "completes" after the cancellation, as a miss
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	// The error must not have been cached or written through.
	if _, ok := tier.data["k1"]; ok {
		t.Fatal("cancelled computation written to the tier")
	}
	v, hit, err := c.GetOrCompute("k1", func() (any, error) { return "fresh", nil })
	if err != nil || hit {
		t.Fatalf("post-cancel lookup: hit=%v err=%v", hit, err)
	}
	if v != "fresh" {
		t.Fatalf("post-cancel lookup got %v", v)
	}
	// And the fresh value was written through.
	if got := tier.data["k1"]; got != "fresh" {
		t.Fatalf("tier holds %v after recompute", got)
	}
}

func TestSecondTierResetAndRemoval(t *testing.T) {
	c := New(0)
	tier := newFakeTier()
	tier.data["k1"] = 1
	c.SetSecondTier(tier)
	if _, _, err := c.GetOrCompute("k1", nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d", st.DiskHits)
	}
	c.Reset()
	if st := c.Stats(); st.DiskHits != 0 || st.Entries != 0 {
		t.Errorf("stats after Reset = %+v", st)
	}
	// Removing the tier makes the cache memory-only again.
	c.SetSecondTier(nil)
	if _, _, err := c.GetOrCompute("k2", func() (any, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if n := tier.puts.Load(); n != 0 {
		t.Errorf("removed tier still received %d puts", n)
	}
}

// TestSecondTierHammer exercises the two-tier path under contention:
// many goroutines, overlapping keys, a tier that serves half the keys,
// and a capacity small enough to force constant eviction. Run with
// -race; correctness here is "right value for every key, no deadlock,
// no leak".
func TestSecondTierHammer(t *testing.T) {
	checkNoGoroutineLeak(t)
	c := New(8)
	tier := newFakeTier()
	for i := 0; i < 16; i += 2 {
		tier.data[key(i)] = i * 100
	}
	c.SetSecondTier(tier)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % 16
				want := i * 100
				v, _, err := c.GetOrCompute(key(i), func() (any, error) { return i * 100, nil })
				if err != nil {
					t.Errorf("key %d: %v", i, err)
					return
				}
				if v != want {
					t.Errorf("key %d: got %v, want %d", i, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 8 {
		t.Errorf("capacity exceeded: %d entries resident", st.Entries)
	}
	if st.Hits+st.Misses != 16*200 {
		t.Errorf("lookups lost: hits+misses = %d, want %d", st.Hits+st.Misses, 16*200)
	}
}

// probeFailTier is a SecondTier that fails the test whenever it is read.
type probeFailTier struct{ t *testing.T }

func (p probeFailTier) Get(key string) (any, bool) {
	p.t.Errorf("Resident probed the second tier for %q", key)
	return nil, false
}

func (probeFailTier) Put(string, any) {}

// TestResidentSkipsSecondTier pins Resident as a memory-only probe: with
// a second tier installed, neither an absent nor a resident key reaches
// it, and only the resident key counts (as a hit).
func TestResidentSkipsSecondTier(t *testing.T) {
	c := New(0)
	c.SetSecondTier(probeFailTier{t})
	if v, ok := c.Resident("absent"); ok {
		t.Fatalf("Resident(absent) = %v, true", v)
	}
	c.Put("k", 1)
	if v, ok := c.Resident("k"); !ok || v != 1 {
		t.Fatalf("Resident(k) = %v, %t; want 1, true", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v; want one hit, no miss, no disk hit", st)
	}
}

func key(i int) string {
	return string(rune('a'+i)) + "-key"
}
