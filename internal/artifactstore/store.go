package artifactstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"cnnperf/internal/obs"
)

// Store is a content-addressed artifact store on the local filesystem.
// Artifacts live under <dir>/<ns>/<hash[:2]>/<hash> where hash is the
// SHA-256 of the full cache key; the two-character shard keeps any one
// directory small. Writes go to a temp file in the target directory and
// are renamed into place, so readers never observe a partial record.
//
// Each namespace carries a VERSION file. Opening a namespace whose
// recorded version differs from the code's wipes that namespace: a
// format bump invalidates exactly the artifacts it affects and nothing
// else.
type Store struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	puts    atomic.Uint64
	corrupt atomic.Uint64
}

// Stats are cumulative since Open.
type Stats struct {
	Hits    uint64 // records found, verified and returned
	Misses  uint64 // lookups with no record on disk
	Puts    uint64 // records written
	Corrupt uint64 // records that failed verification and were quarantined
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifactstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// validNamespace reports whether ns is safe to use as a directory name.
func validNamespace(ns string) bool {
	if ns == "" || len(ns) > maxNamespaceLen {
		return false
	}
	for _, c := range ns {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// EnsureNamespace prepares a namespace for use at the given format
// version. If the namespace exists at a different version its contents
// are wiped — persisted artifacts of a stale format are worthless and
// must be recomputed, never reinterpreted.
func (s *Store) EnsureNamespace(ns string, version int) error {
	if !validNamespace(ns) {
		return fmt.Errorf("artifactstore: invalid namespace %q", ns)
	}
	if version <= 0 {
		return fmt.Errorf("artifactstore: namespace %q: version must be positive, got %d", ns, version)
	}
	nsDir := filepath.Join(s.dir, ns)
	verFile := filepath.Join(nsDir, "VERSION")
	if b, err := os.ReadFile(verFile); err == nil {
		got, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr == nil && got == version {
			return nil
		}
		// Version skew (or an unreadable VERSION file): wipe and rebuild.
		if err := os.RemoveAll(nsDir); err != nil {
			return fmt.Errorf("artifactstore: wiping stale namespace %q: %w", ns, err)
		}
	}
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	if err := atomicWriteFile(verFile, []byte(strconv.Itoa(version)+"\n")); err != nil {
		return fmt.Errorf("artifactstore: writing %s: %w", verFile, err)
	}
	return nil
}

// recordPath maps a namespace and key to the sharded file path.
func (s *Store) recordPath(ns, key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, ns, h[:2], h)
}

// Get returns the payload stored for (ns, key), or ok=false on a miss.
// A record that fails verification — bad CRC, truncated, or recorded
// under a different key (hash collision, tampering) — is quarantined by
// renaming it aside, counted, and reported as a miss so the caller
// recomputes and overwrites it.
func (s *Store) Get(ctx context.Context, ns, key string) (payload []byte, ok bool, err error) {
	_, span := obs.Start(ctx, "store.get", obs.String("ns", ns))
	defer span.End()
	path := s.recordPath(ns, key)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		span.SetAttr(obs.Bool("hit", false))
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("artifactstore: %w", err)
	}
	gotNS, gotKey, payload, derr := decodeRecord(b)
	if derr == nil && (gotNS != ns || gotKey != key) {
		derr = fmt.Errorf("artifactstore: record identity mismatch: stored (%q, %q), wanted (%q, …)", gotNS, gotKey, ns)
	}
	if derr != nil {
		s.quarantine(path)
		s.corrupt.Add(1)
		s.misses.Add(1)
		span.SetAttr(obs.Bool("hit", false), obs.Bool("corrupt", true))
		return nil, false, nil
	}
	s.hits.Add(1)
	span.SetAttr(obs.Bool("hit", true), obs.Int("bytes", len(b)))
	return payload, true, nil
}

// Put stores payload under (ns, key), overwriting any existing record.
func (s *Store) Put(ctx context.Context, ns, key string, payload []byte) error {
	_, span := obs.Start(ctx, "store.put", obs.String("ns", ns), obs.Int("bytes", len(payload)))
	defer span.End()
	rec, err := encodeRecord(ns, key, payload)
	if err != nil {
		return err
	}
	path := s.recordPath(ns, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	if err := atomicWriteFile(path, rec); err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// quarantine moves a corrupt record aside so it is never served again
// but remains available for post-mortem inspection until the next GC.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Renaming failed (e.g. read-only store): removing is the
		// next-best way to stop serving the bad record.
		os.Remove(path)
	}
}

// walkRecords visits every record file of the given namespaces (all of
// them when none is given) in deterministic order (sorted namespaces,
// then sorted hashes). Temp, VERSION and quarantined files are skipped.
func (s *Store) walkRecords(only []string, fn func(ns, path string) error) error {
	namespaces, err := sortedSubdirs(s.dir)
	if err != nil {
		return err
	}
	for _, ns := range namespaces {
		if !inNamespaces(only, ns) {
			continue
		}
		nsDir := filepath.Join(s.dir, ns)
		shards, err := sortedSubdirs(nsDir)
		if err != nil {
			return err
		}
		for _, shard := range shards {
			shardDir := filepath.Join(nsDir, shard)
			ents, err := os.ReadDir(shardDir)
			if err != nil {
				return fmt.Errorf("artifactstore: %w", err)
			}
			names := make([]string, 0, len(ents))
			for _, e := range ents {
				if e.IsDir() || strings.HasSuffix(e.Name(), ".corrupt") || strings.HasPrefix(e.Name(), tmpPrefix) {
					continue
				}
				names = append(names, e.Name())
			}
			sort.Strings(names)
			for _, name := range names {
				if err := fn(ns, filepath.Join(shardDir, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// inNamespaces reports whether ns passes a namespace filter: it is one
// of namespaces, or namespaces is empty.
func inNamespaces(namespaces []string, ns string) bool {
	return len(namespaces) == 0 || slices.Contains(namespaces, ns)
}

func sortedSubdirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// VerifyResult summarises a store or snapshot integrity check.
type VerifyResult struct {
	Records int // records that verified clean
	Corrupt int // records that failed CRC/framing/identity checks
	Bytes   int64
}

// Verify re-reads and verifies every record in the store. Corrupt
// records are quarantined as in Get.
func (s *Store) Verify(ctx context.Context) (VerifyResult, error) {
	var res VerifyResult
	err := s.walkRecords(nil, func(ns, path string) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("artifactstore: %w", err)
		}
		gotNS, _, _, derr := decodeRecord(b)
		if derr == nil && gotNS != ns {
			derr = fmt.Errorf("artifactstore: record in namespace dir %q claims namespace %q", ns, gotNS)
		}
		if derr != nil {
			s.quarantine(path)
			s.corrupt.Add(1)
			res.Corrupt++
			return nil
		}
		res.Records++
		res.Bytes += int64(len(b))
		return nil
	})
	return res, err
}

// GCResult summarises a garbage-collection pass.
type GCResult struct {
	Removed    int      // files deleted (quarantined records + stale temp files)
	Namespaces []string // namespace directories deleted, records and all
}

// GC removes quarantined records and orphaned temp files left behind by
// interrupted writes. With namespaces given, it also deletes every other
// namespace directory, that is every subdirectory holding a VERSION
// file; the records of the given namespaces are never touched.
func (s *Store) GC(ctx context.Context, namespaces ...string) (GCResult, error) {
	var res GCResult
	if len(namespaces) > 0 {
		dirs, err := sortedSubdirs(s.dir)
		if err != nil {
			return res, err
		}
		for _, ns := range dirs {
			if slices.Contains(namespaces, ns) {
				continue
			}
			nsDir := filepath.Join(s.dir, ns)
			if _, err := os.Stat(filepath.Join(nsDir, "VERSION")); err != nil {
				continue // not a namespace this store wrote
			}
			if err := os.RemoveAll(nsDir); err != nil {
				return res, fmt.Errorf("artifactstore: %w", err)
			}
			res.Namespaces = append(res.Namespaces, ns)
		}
	}
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("artifactstore: %w", err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".corrupt") || strings.HasPrefix(name, tmpPrefix) {
			if rerr := os.Remove(path); rerr == nil {
				res.Removed++
			}
		}
		return nil
	})
	return res, err
}

const tmpPrefix = ".tmp-"

// atomicWriteFile writes data to a temp file in the target directory
// and renames it into place.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
