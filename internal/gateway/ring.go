// Package gateway implements the sharded multi-replica front end for
// cnnperfd: a consistent-hash router that spreads /v1/predict and
// /v1/lint traffic across N backend replicas by the same content key
// the server memoizes analyses under, so every distinct unit of analysis
// work has exactly one home replica (and therefore one warm cache
// entry fleet-wide instead of N).
//
// The gateway health-checks its backends (/healthz probing with
// ejection and re-admission), retries connection failures against the
// next replica on the ring under a bounded budget with backoff,
// re-routes exactly one draining 503 per request, and exposes
// cnnperfd_gw_* metrics in Prometheus text exposition.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// defaultVNodes is the virtual-node count per backend: high enough
// that key distribution stays within a few percent of uniform, low
// enough that ring rebuilds stay trivially cheap.
const defaultVNodes = 128

// node is one virtual point on the ring.
type node struct {
	hash    uint64
	backend string
}

// Ring is a consistent-hash ring over backend names. Placement is a
// pure function of the member set — two rings holding the same
// backends route every key identically regardless of insertion order
// or process lifetime, which is what lets a restarted gateway (or a
// second gateway replica) agree on routing without coordination.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	nodes   []node // sorted by (hash, backend)
	members map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// backend (<= 0 selects the default of 128).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// pointHash places virtual node i of a backend on the ring. sha256
// keeps placement deterministic across processes (unlike Go's seeded
// map or maphash) and uniform enough for tight distribution bounds.
func pointHash(backend string, i int) uint64 {
	sum := sha256.Sum256([]byte(backend + "\x00" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash places a routing key on the ring.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte("key\x00" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a backend (idempotent).
func (r *Ring) Add(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[backend]; ok {
		return
	}
	r.members[backend] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.nodes = append(r.nodes, node{hash: pointHash(backend, i), backend: backend})
	}
	sort.Slice(r.nodes, func(a, b int) bool {
		if r.nodes[a].hash != r.nodes[b].hash {
			return r.nodes[a].hash < r.nodes[b].hash
		}
		return r.nodes[a].backend < r.nodes[b].backend
	})
}

// Remove deletes a backend (idempotent). Keys it owned redistribute
// to the ring successors of its virtual nodes; keys owned by other
// backends do not move.
func (r *Ring) Remove(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[backend]; !ok {
		return
	}
	delete(r.members, backend)
	kept := r.nodes[:0]
	for _, n := range r.nodes {
		if n.backend != backend {
			kept = append(kept, n)
		}
	}
	r.nodes = kept
}

// Has reports membership.
func (r *Ring) Has(backend string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[backend]
	return ok
}

// Members returns the member set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for b := range r.members {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns the backend owning key, or false on an empty ring.
func (r *Ring) Lookup(key string) (string, bool) {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return "", false
	}
	return seq[0], true
}

// Sequence returns up to max distinct backends in ring order starting
// at key's owner: the retry order for that key. Successive calls see
// the current member set; a key's sequence is stable while membership
// is.
func (r *Ring) Sequence(key string, max int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.members) {
		max = len(r.members)
	}
	h := keyHash(key)
	start := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].hash >= h })
	out := make([]string, 0, max)
	seen := make(map[string]struct{}, max)
	for i := 0; i < len(r.nodes) && len(out) < max; i++ {
		n := r.nodes[(start+i)%len(r.nodes)]
		if _, dup := seen[n.backend]; dup {
			continue
		}
		seen[n.backend] = struct{}{}
		out = append(out, n.backend)
	}
	return out
}
