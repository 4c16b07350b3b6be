// Package analysiscache is the content-addressed memo store underneath
// the analysis pipeline: per-kernel dynamic-code-analysis reports and
// static-analysis results are keyed by a hash of the kernel's canonical
// text (plus launch discriminators), so the many zoo models sharing
// identical conv/GEMM kernel shapes pay for each slice exactly once.
// The cache is safe for concurrent use by the worker pool: concurrent
// misses on one key are deduplicated so a value is computed at most
// once, and a bounded capacity evicts least-recently-used entries.
// Hit/miss/eviction counters are exposed for tests and the CLI.
package analysiscache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"cnnperf/internal/parallel"
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from the cache, including lookups
	// that waited on an in-flight computation of the same key.
	Hits uint64
	// Misses counts lookups that had to compute the value.
	Misses uint64
	// Waits counts the subset of Hits that blocked on an in-flight
	// computation of the same key (singleflight sharing) rather than
	// reading a resident entry.
	Waits uint64
	// Evictions counts entries dropped by the capacity bound.
	Evictions uint64
	// Entries is the current resident entry count.
	Entries int
	// DiskHits counts the subset of Misses answered by the second tier
	// instead of running the compute function.
	DiskHits uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the counters in a CLI-friendly single line.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d hit_rate=%.1f%%",
		s.Hits, s.Misses, s.Evictions, s.Entries, 100*s.HitRate())
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation; its waiters block on done until
// finish publishes val and err.
type call struct {
	done sync.WaitGroup
	val  any
	err  error
}

// SecondTier is a persistent layer probed between a memory miss and the
// compute function, and written through on computed values. Get returns
// the decoded value, or ok=false for any miss (absent, corrupt, or
// undecodable — the tier decides; the cache just recomputes). Both
// methods must be safe for concurrent use; the cache calls them outside
// its lock, at most once per key per singleflight.
type SecondTier interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

// Cache is a concurrency-safe, content-addressed memo store with LRU
// eviction. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*call

	// The counters are atomics, not mu-guarded fields, so Stats() is a
	// lock-free snapshot: a metrics endpoint polling a busy cache never
	// contends with the lookup hot path.
	hits, misses, evictions atomic.Uint64
	waits, diskHits         atomic.Uint64
	resident                atomic.Int64

	// second is the optional persistent tier, swappable at runtime.
	second atomic.Pointer[SecondTier]
}

// New creates a cache bounded to capacity entries; capacity <= 0 means
// unbounded (the per-kernel results of even the full CNN zoo are small).
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*call),
	}
}

// SetSecondTier installs (or, with nil, removes) the persistent tier.
// Only GetOrCompute consults it: Get and Resident stay memory-only
// probes.
func (c *Cache) SetSecondTier(t SecondTier) {
	if t == nil {
		c.second.Store(nil)
		return
	}
	c.second.Store(&t)
}

// Get returns the cached value for key, counting a hit or miss.
func (c *Cache) Get(key string) (any, bool) {
	v, ok := c.Resident(key)
	if !ok {
		c.misses.Add(1)
	}
	return v, ok
}

// Resident returns the value resident in memory under key, counting a
// hit and refreshing its LRU position. An absent key counts nothing, so
// a caller that falls back to GetOrCompute on the same key records its
// miss exactly once. The second tier is never probed.
func (c *Cache) Resident(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores a value under key, evicting the least-recently-used entry
// when over capacity.
func (c *Cache) Put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, v)
}

// put stores a value; the caller holds c.mu.
func (c *Cache) put(key string, v any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, val: v})
	c.resident.Add(1)
	for c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions.Add(1)
		c.resident.Add(-1)
	}
}

// GetOrCompute returns the cached value for key, computing and caching
// it on a miss. Concurrent callers for the same key share one
// computation: the first runs compute, the rest wait and count as hits.
// Errors are propagated to every sharing caller and never cached.
//
// With a second tier installed, a memory miss probes the tier before
// computing and writes freshly computed values through to it. Both the
// probe and the write-through happen inside the singleflight, so a slow
// disk never runs more than one I/O per key and concurrent callers
// still coalesce.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.lru.MoveToFront(el)
		v = el.Value.(*entry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.hits.Add(1)
		c.waits.Add(1)
		c.mu.Unlock()
		cl.done.Wait()
		return cl.val, true, cl.err
	}
	c.misses.Add(1)
	cl := &call{}
	cl.done.Add(1)
	c.inflight[key] = cl
	c.mu.Unlock()

	// A panicking compute must still release its waiters and its
	// in-flight slot, or every later lookup of key would block forever.
	// The waiters get the panic as a *parallel.PanicError; this caller
	// gets the panic itself, re-raised with the same value.
	defer func() {
		if r := recover(); r != nil {
			pe := parallel.Recovered(r)
			c.finish(key, cl, nil, pe)
			panic(pe)
		}
	}()
	v, err = c.computeThrough(key, compute)
	c.finish(key, cl, v, err)
	return v, false, err
}

// finish publishes a computation's outcome to its waiters and, if the
// call is still the registered one, retires it from the in-flight table
// and caches a successful value.
func (c *Cache) finish(key string, cl *call, v any, err error) {
	cl.val, cl.err = v, err
	cl.done.Done()

	c.mu.Lock()
	// A Reset during the computation replaces the inflight table; only
	// cache the result if this call is still the registered one.
	if c.inflight[key] == cl {
		delete(c.inflight, key)
		if err == nil {
			c.put(key, v)
		}
	}
	c.mu.Unlock()
}

// computeThrough runs the miss path under an active singleflight slot:
// probe the second tier, fall back to compute, write computed values
// through. Runs outside c.mu.
func (c *Cache) computeThrough(key string, compute func() (any, error)) (any, error) {
	tier := c.second.Load()
	if tier != nil {
		if v, ok := (*tier).Get(key); ok {
			c.diskHits.Add(1)
			return v, nil
		}
	}
	v, err := compute()
	if err == nil && tier != nil {
		(*tier).Put(key, v)
	}
	return v, err
}

// Stats returns a snapshot of the counters. The read is lock-free (each
// counter is atomic), so stats polling never blocks behind — or slows
// down — concurrent lookups; the counters in one snapshot may be
// mutually skewed by in-flight operations.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int(c.resident.Load()),
		DiskHits:  c.diskHits.Load(),
	}
}

// Reset drops every entry and zeroes the counters. In-flight
// computations complete but their results are discarded.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.inflight = make(map[string]*call)
	c.hits.Store(0)
	c.misses.Store(0)
	c.waits.Store(0)
	c.evictions.Store(0)
	c.resident.Store(0)
	c.diskHits.Store(0)
}
