package artifactstore

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// A Codec translates one class of cached values to and from persisted
// bytes. Each codec owns one store namespace; the namespace doubles as
// the cache-key prefix (keys look like "<ns>:<hex>") that routes a key
// to its codec. Version is the artifact format version: bumping it
// wipes the namespace on the next Open, invalidating artifacts whose
// byte format changed.
type Codec interface {
	Namespace() string
	Version() int
	Encode(v any) ([]byte, error)
	Decode(b []byte) (any, error)
}

// Tier is the disk tier under the in-memory analysis cache. It
// implements the cache's SecondTier interface: Get probes the store
// (and, if configured, a read-only snapshot overlay) and decodes; Put
// encodes and writes through. Keys whose namespace prefix has no
// registered codec are silently skipped — the disk tier only persists
// artifact classes it understands.
//
// Tier may be configured with a store, a snapshot, or both. With only a
// snapshot it serves reads from memory and drops writes: the
// zero-cold-start boot path for replicas that share one snapshot file
// and have no local disk to warm.
type Tier struct {
	store  *Store // may be nil (snapshot-only)
	codecs map[string]Codec

	// snapshot overlay: records loaded from a snapshot file, probed
	// after the store misses. Written only during LoadSnapshotFile.
	snapshot map[string][]byte // "<ns>\x00<key>" -> payload

	// base context for spans recorded on the SecondTier path, which
	// has no per-call context. Defaults to context.Background.
	baseCtx atomic.Pointer[context.Context]

	decodeErrs atomic.Uint64
}

// NewTier builds a disk tier over store (which may be nil for a
// snapshot-only tier) with the given codecs. Namespaces are prepared at
// their codec's version — stale-format namespaces are wiped here.
func NewTier(store *Store, codecs ...Codec) (*Tier, error) {
	t := &Tier{store: store, codecs: make(map[string]Codec, len(codecs))}
	bg := context.Background()
	t.baseCtx.Store(&bg)
	for _, c := range codecs {
		ns := c.Namespace()
		if !validNamespace(ns) {
			return nil, fmt.Errorf("artifactstore: codec has invalid namespace %q", ns)
		}
		if _, dup := t.codecs[ns]; dup {
			return nil, fmt.Errorf("artifactstore: duplicate codec for namespace %q", ns)
		}
		t.codecs[ns] = c
		if store != nil {
			if err := store.EnsureNamespace(ns, c.Version()); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// SetBaseContext sets the context under which the tier's store spans
// are recorded (the SecondTier interface carries no context).
func (t *Tier) SetBaseContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.baseCtx.Store(&ctx)
}

func (t *Tier) ctx() context.Context { return *t.baseCtx.Load() }

// Store returns the underlying store, or nil for a snapshot-only tier.
func (t *Tier) Store() *Store { return t.store }

// Namespaces returns the namespaces the tier has a codec for, sorted.
// Records in any other namespace are never read.
func (t *Tier) Namespaces() []string {
	ns := make([]string, 0, len(t.codecs))
	for n := range t.codecs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// DecodeErrors counts payloads that a codec refused to decode. Each
// such artifact is treated as a miss and recomputed.
func (t *Tier) DecodeErrors() uint64 { return t.decodeErrs.Load() }

// splitKey maps a cache key like "dca:<hex>" to its namespace and the
// codec registered for it.
func (t *Tier) splitKey(key string) (Codec, string, bool) {
	i := strings.IndexByte(key, ':')
	if i <= 0 {
		return nil, "", false
	}
	ns := key[:i]
	c, ok := t.codecs[ns]
	return c, ns, ok
}

// Get probes disk (then the snapshot overlay) for the artifact behind
// key and decodes it. Any failure — missing record, corrupt record,
// undecodable payload — is a miss: the caller recomputes and the next
// Put overwrites the bad artifact.
func (t *Tier) Get(key string) (any, bool) {
	c, ns, ok := t.splitKey(key)
	if !ok {
		return nil, false
	}
	var payload []byte
	found := false
	if t.store != nil {
		p, hit, err := t.store.Get(t.ctx(), ns, key)
		if err == nil && hit {
			payload, found = p, true
		}
	}
	if !found && t.snapshot != nil {
		if p, hit := t.snapshot[ns+"\x00"+key]; hit {
			payload, found = p, true
		}
	}
	if !found {
		return nil, false
	}
	v, err := c.Decode(payload)
	if err != nil {
		t.decodeErrs.Add(1)
		return nil, false
	}
	return v, true
}

// Put encodes v and writes it through to the store. Snapshot-only tiers
// and keys without a codec drop the write; persistence is best-effort
// and never fails the compute path.
func (t *Tier) Put(key string, v any) {
	c, ns, ok := t.splitKey(key)
	if !ok || t.store == nil {
		return
	}
	payload, err := c.Encode(v)
	if err != nil {
		return
	}
	// Best-effort: a full disk or permission error must not break
	// serving, the artifact is simply recomputed next boot.
	_ = t.store.Put(t.ctx(), ns, key, payload)
}

// LoadSnapshotFile loads a snapshot into the tier's in-memory overlay.
// Records in namespaces without a codec are skipped (they may belong to
// a newer binary); records are kept as raw payloads and decoded lazily
// on Get. Call before serving — the overlay is not locked.
func (t *Tier) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	defer f.Close()
	if t.snapshot == nil {
		t.snapshot = make(map[string][]byte)
	}
	loaded := 0
	_, err = ReadSnapshot(f, func(ns, key string, payload []byte) error {
		if _, ok := t.codecs[ns]; !ok {
			return nil
		}
		t.snapshot[ns+"\x00"+key] = payload
		loaded++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return loaded, nil
}
