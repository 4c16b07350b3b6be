package artifactstore

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cnnperf/internal/obs"
)

// Store is a content-addressed artifact store on the local filesystem.
// Each namespace is a directory holding a VERSION file and one
// append-only log, <ns>/records: a stream of the framed records of
// record.go, the frames a snapshot carries too. An in-memory index per
// log maps the SHA-256 of a full cache key to its latest record.
//
// Several Stores, in one process or in several, may share a directory.
// A writer appends under an exclusive flock(2) of the log; a reader
// that misses its index catches up on what others appended under a
// shared one. Compaction (GC) writes a new log and renames it into
// place while it holds the exclusive lock of the old one, so a Store
// that then finds the path naming another file reopens it and indexes
// it from the start, and no write lands in the replaced file.
//
// Opening a namespace whose recorded version differs from the code's
// wipes that namespace: a format bump invalidates exactly the artifacts
// it affects and nothing else.
type Store struct {
	dir string

	mu   sync.Mutex
	logs map[string]*nsLog // nil once closed

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
	Corrupt uint64 // records and torn log tails that failed verification; never served
}

const (
	logName     = "records"
	versionName = "VERSION"
)

var errClosed = errors.New("artifactstore: store closed")

// nsLog is one namespace's log as one Store sees it. mu guards every
// field but the names.
type nsLog struct {
	ns, dir, path string

	mu      sync.Mutex
	closed  bool
	f       *os.File    // nil until opened
	fi      os.FileInfo // f's identity, to tell when the path names another file
	index   map[[sha256.Size]byte]extent
	scanned int64 // bytes of f indexed so far
	frames  int   // records framed in those bytes, live or not
}

// extent locates one record in a log.
type extent struct{ off, n int64 }

// Open opens (creating if necessary) a store rooted at dir. It indexes
// every namespace log it finds and cuts any torn tail off them.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifactstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	s := &Store{dir: dir, logs: make(map[string]*nsLog)}
	namespaces, err := s.namespaces(nil)
	if err != nil {
		return nil, err
	}
	for _, ns := range namespaces {
		l, err := s.log(ns)
		if err == nil {
			l.mu.Lock()
			_, err = l.sync(s)
			l.mu.Unlock()
		}
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close releases the store's logs. Calls after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	logs := s.logs
	s.logs = nil
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		l.mu.Lock()
		l.closed = true
		if err := l.closeFile(); err != nil && first == nil {
			first = fmt.Errorf("artifactstore: %w", err)
		}
		l.mu.Unlock()
	}
	return first
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

// inNamespaces reports whether ns passes a namespace filter: it is one
// of namespaces, or namespaces is empty.
func inNamespaces(namespaces []string, ns string) bool {
	return len(namespaces) == 0 || slices.Contains(namespaces, ns)
}

// namespaces lists, sorted, the directories under the store root whose
// names are valid namespaces and pass the filter only.
func (s *Store) namespaces(only []string) ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && validNamespace(e.Name()) && inNamespaces(only, e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// log returns the Store's view of namespace ns.
func (s *Store) log(ns string) (*nsLog, error) {
	if !validNamespace(ns) {
		return nil, fmt.Errorf("artifactstore: invalid namespace %q", ns)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logs == nil {
		return nil, errClosed
	}
	l := s.logs[ns]
	if l == nil {
		dir := filepath.Join(s.dir, ns)
		l = &nsLog{ns: ns, dir: dir, path: filepath.Join(dir, logName)}
		s.logs[ns] = l
	}
	return l, nil
}

// EnsureNamespace prepares a namespace for use at the given format
// version. If the namespace exists at a different version its contents
// are wiped — persisted artifacts of a stale format are worthless and
// must be recomputed, never reinterpreted. The VERSION file is read and
// written under the exclusive lock of the namespace's log.
func (s *Store) EnsureNamespace(ns string, version int) error {
	if version <= 0 {
		return fmt.Errorf("artifactstore: namespace %q: version must be positive, got %d", ns, version)
	}
	l, err := s.log(ns)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.lockFile(lockExclusive, true); err != nil {
		return err
	}
	defer l.unlockFile()
	verFile := filepath.Join(l.dir, versionName)
	if b, err := os.ReadFile(verFile); err == nil {
		got, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr == nil && got == version {
			return nil
		}
		// Version skew (or an unreadable VERSION file): wipe and rebuild.
		if err := os.RemoveAll(l.dir); err != nil {
			return fmt.Errorf("artifactstore: wiping stale namespace %q: %w", ns, err)
		}
		l.closeFile()
		if _, _, err := l.lockFile(lockExclusive, true); err != nil {
			return err
		}
	}
	if err := os.WriteFile(verFile, []byte(strconv.Itoa(version)+"\n"), 0o644); err != nil {
		return fmt.Errorf("artifactstore: writing %s: %w", verFile, err)
	}
	return nil
}

// Get returns the payload stored for (ns, key), or ok=false on a miss.
// A record that fails verification — bad CRC, truncated, or recorded
// under a different key (hash collision, tampering) — is dropped from
// the index, counted, and reported as a miss so the caller recomputes
// and appends a good one.
func (s *Store) Get(ctx context.Context, ns, key string) (payload []byte, ok bool, err error) {
	_, span := obs.Start(ctx, "store.get", obs.String("ns", ns))
	defer span.End()
	l, err := s.log(ns)
	if err != nil {
		return nil, false, err
	}
	h := sha256.Sum256([]byte(key))
	l.mu.Lock()
	defer l.mu.Unlock()
	e, found := l.index[h]
	if !found {
		if _, err := l.sync(s); err != nil {
			return nil, false, err
		}
		e, found = l.index[h]
	}
	if !found {
		s.misses.Add(1)
		span.SetAttr(obs.Bool("hit", false))
		return nil, false, nil
	}
	rec := make([]byte, e.n)
	_, rerr := l.f.ReadAt(rec, e.off)
	var gotNS, gotKey []byte
	if rerr == nil {
		gotNS, gotKey, payload, rerr = splitRecord(rec)
	}
	if rerr != nil || string(gotNS) != ns || string(gotKey) != key {
		delete(l.index, h)
		s.corrupt.Add(1)
		s.misses.Add(1)
		span.SetAttr(obs.Bool("hit", false), obs.Bool("corrupt", true))
		return nil, false, nil
	}
	s.hits.Add(1)
	span.SetAttr(obs.Bool("hit", true), obs.Int("bytes", len(rec)))
	return payload, true, nil
}

// Put stores payload under (ns, key): it appends a record that
// supersedes any earlier one of the key.
func (s *Store) Put(ctx context.Context, ns, key string, payload []byte) error {
	_, span := obs.Start(ctx, "store.put", obs.String("ns", ns), obs.Int("bytes", len(payload)))
	defer span.End()
	rec, err := encodeRecord(ns, key, payload)
	if err != nil {
		return err
	}
	l, err := s.log(ns)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size, _, err := l.lockFile(lockExclusive, true)
	if err != nil {
		return err
	}
	defer l.unlockFile()
	if _, _, err := l.catchUp(s, size, true); err != nil {
		return err
	}
	// A failed or short write leaves a torn tail past l.scanned, which
	// the next catch-up under the exclusive lock cuts off.
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	l.index[sha256.Sum256([]byte(key))] = extent{l.scanned, int64(len(rec))}
	l.scanned += int64(len(rec))
	l.frames++
	s.puts.Add(1)
	return nil
}

// lockFile takes the flock(2) lock how (lockShared or lockExclusive) on
// the log and returns the log's size. It opens the log first if need
// be, creating it when create is set, and reopens it when the path no
// longer names the file held open — another Store compacted or removed
// it — so the index starts again from the new file's first byte. ok is
// false, with no lock held, when there is no log and create is unset.
// The caller holds l.mu.
func (l *nsLog) lockFile(how int, create bool) (size int64, ok bool, err error) {
	for {
		if l.closed {
			return 0, false, errClosed
		}
		if l.f == nil {
			flag := os.O_RDWR | os.O_APPEND
			if create {
				if err := os.MkdirAll(l.dir, 0o755); err != nil {
					return 0, false, fmt.Errorf("artifactstore: %w", err)
				}
				flag |= os.O_CREATE
			}
			f, err := os.OpenFile(l.path, flag, 0o644)
			if !create && errors.Is(err, fs.ErrNotExist) {
				return 0, false, nil
			}
			if err != nil {
				return 0, false, fmt.Errorf("artifactstore: %w", err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return 0, false, fmt.Errorf("artifactstore: %w", err)
			}
			l.f, l.fi = f, fi
			l.forget()
		}
		if err := flock(l.f, how); err != nil {
			return 0, false, fmt.Errorf("artifactstore: locking %s: %w", l.path, err)
		}
		fi, err := os.Stat(l.path)
		if err == nil && os.SameFile(fi, l.fi) {
			return fi.Size(), true, nil
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			l.unlockFile()
			return 0, false, fmt.Errorf("artifactstore: %w", err)
		}
		l.closeFile() // also drops the lock on the file no longer named
	}
}

// unlockFile releases the file lock lockFile took. The error is
// dropped: releasing a lock held through a valid descriptor cannot
// fail, and closing the file would release it too.
func (l *nsLog) unlockFile() {
	if l.f != nil {
		_ = flock(l.f, lockRelease)
	}
}

// closeFile closes the log, which releases its lock, and forgets the
// index of it.
func (l *nsLog) closeFile() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.fi = nil, nil
	l.forget()
	return err
}

// forget empties the index, so the next catch-up reads the log from its
// first byte.
func (l *nsLog) forget() {
	l.index, l.scanned, l.frames = make(map[[sha256.Size]byte]extent), 0, 0
}

// sync indexes what was appended to the log since the last scan, under
// the shared lock, and cuts a torn tail off under the exclusive one. It
// returns how many corrupt records it met. The caller holds l.mu.
func (l *nsLog) sync(s *Store) (corrupt int, err error) {
	size, ok, err := l.lockFile(lockShared, false)
	if err != nil || !ok {
		return 0, err
	}
	corrupt, torn, err := l.catchUp(s, size, false)
	l.unlockFile()
	if err != nil || !torn {
		return corrupt, err
	}
	size, ok, err = l.lockFile(lockExclusive, false)
	if err != nil || !ok {
		return corrupt, err
	}
	defer l.unlockFile()
	more, _, err := l.catchUp(s, size, true)
	return corrupt + more, err
}

// catchUp indexes the records between l.scanned and size, the log's
// size under the caller's file lock. A record that frames but fails its
// CRC or names another namespace is counted and skipped. Bytes that do
// not frame as a whole record end the scan: a torn tail, left by a
// writer that died or failed mid-append, since a live writer holds the
// exclusive lock. With repair set (the caller holds that lock) the tail
// is moved to records.corrupt and cut off; without, torn reports it.
// The caller holds l.mu.
func (l *nsLog) catchUp(s *Store, size int64, repair bool) (corrupt int, torn bool, err error) {
	if size < l.scanned {
		// The file shrank under its own name, which no Store does:
		// index it again from the start.
		l.forget()
	}
	if size == l.scanned {
		return 0, false, nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, l.scanned, size-l.scanned), 64<<10)
	head := make([]byte, recordHeader)
	var rec []byte
	for l.scanned < size {
		_, err = io.ReadFull(r, head)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = nil // fewer bytes left than a header
			break
		}
		if err != nil {
			break
		}
		n, ferr := frameLen(head)
		if ferr != nil || l.scanned+int64(n) > size {
			break
		}
		rec = slices.Grow(rec[:0], n)[:n]
		copy(rec, head)
		if _, err = io.ReadFull(r, rec[recordHeader:]); err != nil {
			break
		}
		l.frames++
		if ns, key, _, serr := splitRecord(rec); serr != nil || string(ns) != l.ns {
			corrupt++
		} else {
			l.index[sha256.Sum256(key)] = extent{l.scanned, int64(n)}
		}
		l.scanned += int64(n)
	}
	s.corrupt.Add(uint64(corrupt))
	if err != nil {
		return corrupt, false, fmt.Errorf("artifactstore: reading %s: %w", l.path, err)
	}
	if l.scanned == size {
		return corrupt, false, nil
	}
	if !repair {
		return corrupt, true, nil
	}
	if err := l.cutTail(size); err != nil {
		return corrupt, false, err
	}
	s.corrupt.Add(1)
	return corrupt + 1, false, nil
}

// cutTail appends the log's bytes past l.scanned to records.corrupt,
// kept for inspection until the next GC, and truncates the log there.
// The caller holds the exclusive lock.
func (l *nsLog) cutTail(size int64) error {
	cf, err := os.OpenFile(l.path+".corrupt", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	_, err = io.Copy(cf, io.NewSectionReader(l.f, l.scanned, size-l.scanned))
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.f.Truncate(l.scanned)
	}
	if err != nil {
		return fmt.Errorf("artifactstore: cutting the torn tail of %s: %w", l.path, err)
	}
	return nil
}

// records calls fn with each live record of the log, in the order of
// its key's hash, read back and verified; fn must not keep rec. A
// record that fails is dropped from the index and counted, as in Get.
// The caller holds l.mu.
func (l *nsLog) records(ctx context.Context, s *Store, fn func(h [sha256.Size]byte, rec []byte) error) error {
	hashes := make([][sha256.Size]byte, 0, len(l.index))
	for h := range l.index {
		hashes = append(hashes, h)
	}
	slices.SortFunc(hashes, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	var rec []byte
	for _, h := range hashes {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := l.index[h]
		rec = slices.Grow(rec[:0], int(e.n))[:e.n]
		_, err := l.f.ReadAt(rec, e.off)
		var ns, key []byte
		if err == nil {
			ns, key, _, err = splitRecord(rec)
		}
		if err != nil || string(ns) != l.ns || sha256.Sum256(key) != h {
			delete(l.index, h)
			s.corrupt.Add(1)
			continue
		}
		if err := fn(h, rec); err != nil {
			return err
		}
	}
	return nil
}

// VerifyResult summarises a store or snapshot integrity check.
type VerifyResult struct {
	Records int // live records that verified clean
	Corrupt int // records that failed CRC/framing/identity checks, and torn log tails
	Bytes   int64
}

// Verify reads every namespace log again from its first byte, checking
// every record, and rebuilds the index from what verifies. Corrupt
// records are counted and never served; a torn tail is cut off as at
// Open.
func (s *Store) Verify(ctx context.Context) (VerifyResult, error) {
	var res VerifyResult
	namespaces, err := s.namespaces(nil)
	if err != nil {
		return res, err
	}
	for _, ns := range namespaces {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		l, err := s.log(ns)
		if err != nil {
			return res, err
		}
		l.mu.Lock()
		l.forget()
		corrupt, err := l.sync(s)
		res.Corrupt += corrupt
		res.Records += len(l.index)
		for _, e := range l.index {
			res.Bytes += e.n
		}
		l.mu.Unlock()
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// GCResult summarises a garbage-collection pass.
type GCResult struct {
	Removed    int      // records compacted away (superseded or corrupt) and stale files deleted
	Namespaces []string // namespace directories deleted, records and all
}

// GC compacts each namespace log to its live records, and deletes what
// else a namespace directory holds besides its VERSION file and log:
// torn tails cut off into records.corrupt, and the shard directories of
// the one-file-per-record layout of earlier builds. With namespaces
// given, it also deletes every other namespace directory, that is every
// subdirectory holding a VERSION file; the records of the given
// namespaces are never touched.
func (s *Store) GC(ctx context.Context, namespaces ...string) (GCResult, error) {
	var res GCResult
	dirs, err := s.namespaces(nil)
	if err != nil {
		return res, err
	}
	for _, ns := range dirs {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		l, err := s.log(ns)
		if err != nil {
			return res, err
		}
		if !inNamespaces(namespaces, ns) {
			if _, err := os.Stat(filepath.Join(l.dir, versionName)); err != nil {
				continue // not a namespace this store wrote
			}
			if err := l.remove(); err != nil {
				return res, err
			}
			res.Namespaces = append(res.Namespaces, ns)
			continue
		}
		n, err := l.compact(ctx, s)
		res.Removed += n
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// remove deletes the namespace directory under the exclusive lock of
// its log, so that a writer waiting for the lock finds the log gone.
func (l *nsLog) remove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, _, err := l.lockFile(lockExclusive, false); err != nil {
		return err
	}
	err := os.RemoveAll(l.dir)
	l.closeFile()
	if err != nil {
		return fmt.Errorf("artifactstore: %w", err)
	}
	return nil
}

// compact does GC's work on one namespace under the exclusive lock of
// its log and returns how many records and files it dropped. A
// directory with neither a log nor a VERSION file is not a namespace
// and is left alone.
func (l *nsLog) compact(ctx context.Context, s *Store) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size, ok, err := l.lockFile(lockExclusive, false)
	if err != nil {
		return 0, err
	}
	if ok {
		defer l.unlockFile()
		if _, _, err := l.catchUp(s, size, true); err != nil {
			return 0, err
		}
	} else if _, err := os.Stat(filepath.Join(l.dir, versionName)); err != nil {
		return 0, nil
	}
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	removed := 0
	for _, e := range ents {
		if e.Name() == logName || e.Name() == versionName {
			continue
		}
		if err := os.RemoveAll(filepath.Join(l.dir, e.Name())); err != nil {
			return removed, fmt.Errorf("artifactstore: %w", err)
		}
		removed++
	}
	if !ok || l.frames == len(l.index) {
		return removed, nil
	}
	n, err := l.rewrite(ctx, s)
	return removed + n, err
}

// rewrite writes the live records to a new file, syncs it and renames
// it over the log, and returns how many records it left out. The caller
// holds the exclusive lock of the old log, and keeps holding it until
// the rename is done, so a writer waiting for it finds the path
// replaced and appends to the new file.
func (l *nsLog) rewrite(ctx context.Context, s *Store) (int, error) {
	tmp := l.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	index := make(map[[sha256.Size]byte]extent, len(l.index))
	var off int64
	bw := bufio.NewWriter(f)
	err = l.records(ctx, s, func(h [sha256.Size]byte, rec []byte) error {
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		index[h] = extent{off, int64(len(rec))}
		off += int64(len(rec))
		return nil
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("artifactstore: compacting %s: %w", l.path, err)
	}
	dropped := l.frames - len(index)
	l.f.Close() // releases the lock on the replaced log
	l.f, l.fi, l.index, l.scanned, l.frames = f, fi, index, off, len(index)
	return dropped, nil
}
