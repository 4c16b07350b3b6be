package artifactstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct {
		ns, key string
		payload []byte
	}{
		{"dca", "dca:00ff", []byte("hello")},
		{"est", "est:" + strings.Repeat("ab", 32), []byte{}},
		{"ptxa", "ptxa:x", bytes.Repeat([]byte{0, 1, 2, 255}, 1000)},
	}
	for _, c := range cases {
		rec, err := encodeRecord(c.ns, c.key, c.payload)
		if err != nil {
			t.Fatalf("encodeRecord(%q, %q): %v", c.ns, c.key, err)
		}
		ns, key, payload, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("decodeRecord: %v", err)
		}
		if ns != c.ns || key != c.key || !bytes.Equal(payload, c.payload) {
			t.Errorf("round trip of (%q, %q) got (%q, %q)", c.ns, c.key, ns, key)
		}
		// Re-encoding is byte-identical.
		rec2, err := encodeRecord(ns, key, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, rec2) {
			t.Errorf("re-encoding (%q, %q) is not byte-identical", c.ns, c.key)
		}
	}
}

func TestRecordRejections(t *testing.T) {
	if _, err := encodeRecord("", "k", nil); err == nil {
		t.Error("empty namespace accepted")
	}
	if _, err := encodeRecord("ns", "", nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := encodeRecord("ns", strings.Repeat("k", maxKeyLen+1), nil); err == nil {
		t.Error("oversized key accepted")
	}

	rec, err := encodeRecord("ns", "key", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte corruption must be rejected (CRC or framing).
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x01
		if _, _, _, err := decodeRecord(bad); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
	// Every truncation must be rejected.
	for n := 0; n < len(rec); n++ {
		if _, _, _, err := decodeRecord(rec[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected.
	if _, _, _, err := decodeRecord(append(append([]byte(nil), rec...), 'x')); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestStorePutGet(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(ctx, "ns", "ns:missing"); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"v":1}`)
	if err := s.Put(ctx, "ns", "ns:key1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(ctx, "ns", "ns:key1")
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	// Overwrite.
	payload2 := []byte(`{"v":2}`)
	if err := s.Put(ctx, "ns", "ns:key1", payload2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get(ctx, "ns", "ns:key1"); !bytes.Equal(got, payload2) {
		t.Fatalf("Get after overwrite returned %q", got)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 2 puts, 0 corrupt", st)
	}
}

// TestStoreQuarantine corrupts a record in the log and checks it is
// detected, counted, never served — by the Store that wrote it or by
// one opened after — repaired by a re-Put, and dropped by GC.
func TestStoreQuarantine(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, key := range []string{"ns:key0", "ns:key1"} {
		if err := s.Put(ctx, "ns", key, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	e := recordExtent(t, s, "ns", "ns:key1")
	flipByte(t, logPath(dir, "ns"), e.off+e.n-1) // break the CRC
	if _, ok, err := s.Get(ctx, "ns", "ns:key1"); err != nil || ok {
		t.Fatalf("corrupt record served: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
	s2 := openStore(t, dir)
	if _, ok, err := s2.Get(ctx, "ns", "ns:key1"); err != nil || ok {
		t.Fatalf("corrupt record served by a store opened after: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("store opened after counts %d corrupt, want 1", st.Corrupt)
	}
	// Recompute-and-Put repairs it, for the other Store too.
	if err := s.Put(ctx, "ns", "ns:key1", []byte("data")); err != nil {
		t.Fatal(err)
	}
	for i, st := range []*Store{s, s2} {
		if got, ok, _ := st.Get(ctx, "ns", "ns:key1"); !ok || !bytes.Equal(got, []byte("data")) {
			t.Fatalf("store %d: repaired record not served: ok=%v got=%q", i, ok, got)
		}
	}
	// GC drops the corrupt record's bytes: the log holds the two live
	// records and nothing else.
	res, err := s.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 {
		t.Errorf("GC removed %d, want the 1 corrupt record", res.Removed)
	}
	if fi, err := os.Stat(logPath(dir, "ns")); err != nil || fi.Size() != 2*recordLen(t, "ns", "ns:key1", "data") {
		t.Errorf("log after GC: %v, want two records", fi.Size())
	}
	s3 := openStore(t, dir)
	for _, key := range []string{"ns:key0", "ns:key1"} {
		if _, ok, _ := s3.Get(ctx, "ns", key); !ok {
			t.Errorf("%s lost by GC", key)
		}
	}
	if st := s3.Stats(); st.Corrupt != 0 {
		t.Errorf("store opened after GC counts %d corrupt, want 0", st.Corrupt)
	}
}

// TestStoreIdentityMismatch checks the identity stored inside a record:
// a valid record of another namespace appended to a log, and an index
// entry that leads to another key's record (a hash collision), are
// counted as corrupt and never served.
func TestStoreIdentityMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Put(ctx, "ns", "ns:key1", []byte("data")); err != nil {
		t.Fatal(err)
	}
	rec, err := encodeRecord("other", "ns:key2", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, logPath(dir, "ns"), rec)
	for i, st := range []*Store{s, openStore(t, dir)} {
		if _, ok, err := st.Get(ctx, "ns", "ns:key2"); err != nil || ok {
			t.Fatalf("store %d served a record of another namespace: ok=%v err=%v", i, ok, err)
		}
		if c := st.Stats().Corrupt; c != 1 {
			t.Errorf("store %d: corrupt count = %d, want 1", i, c)
		}
	}
	// A hash collision: key3's index entry leads to key1's record.
	l := s.logs["ns"]
	l.index[sha256.Sum256([]byte("ns:key3"))] = l.index[sha256.Sum256([]byte("ns:key1"))]
	if _, ok, err := s.Get(ctx, "ns", "ns:key3"); err != nil || ok {
		t.Fatalf("record of another key served: ok=%v err=%v", ok, err)
	}
	if c := s.Stats().Corrupt; c != 2 {
		t.Errorf("corrupt count = %d, want 2", c)
	}
	if _, ok, _ := s.Get(ctx, "ns", "ns:key1"); !ok {
		t.Error("the colliding key's own record is no longer served")
	}
}

func TestEnsureNamespaceVersionWipe(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureNamespace("ns", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "ns", "ns:key1", []byte("v1 format")); err != nil {
		t.Fatal(err)
	}
	// Same version: contents survive.
	if err := s.EnsureNamespace("ns", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(ctx, "ns", "ns:key1"); !ok {
		t.Fatal("record lost on same-version EnsureNamespace")
	}
	// Version bump: namespace wiped.
	if err := s.EnsureNamespace("ns", 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(ctx, "ns", "ns:key1"); ok {
		t.Fatal("stale-format record survived a version bump")
	}
	if err := s.EnsureNamespace("bad namespace!", 1); err == nil {
		t.Error("invalid namespace accepted")
	}
	if err := s.EnsureNamespace("ns", 0); err == nil {
		t.Error("zero version accepted")
	}
}

func TestVerify(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("ns:key%d", i)
		if err := s.Put(ctx, "ns", key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * recordLen(t, "ns", "ns:key0", "ns:key0"); res.Records != 5 || res.Corrupt != 0 || res.Bytes != want {
		t.Fatalf("Verify = %+v, want 5 clean records of %d bytes", res, want)
	}
	// Corrupt one record; Verify must find exactly it and stop serving it.
	e := recordExtent(t, s, "ns", "ns:key3")
	flipByte(t, logPath(dir, "ns"), e.off+recordHeader)
	res, err = s.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 || res.Corrupt != 1 {
		t.Fatalf("Verify after corruption = %+v, want 4 clean + 1 corrupt", res)
	}
	if _, ok, _ := s.Get(ctx, "ns", "ns:key3"); ok {
		t.Error("record Verify found corrupt is still served")
	}
	if _, ok, _ := s.Get(ctx, "ns", "ns:key4"); !ok {
		t.Error("the record after the corrupt one is not served")
	}
}

// TestStoreTornTail opens logs that end in bytes that are not a whole
// record — cut mid-record, as a crash during an append leaves them, or
// followed by garbage. Open keeps every whole record, moves the tail to
// records.corrupt and counts it, and a later Put is readable.
func TestStoreTornTail(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		tear func(log []byte, last extent) (kept, tail []byte)
	}{
		{"cut mid-record", func(log []byte, last extent) ([]byte, []byte) {
			cut := last.off + last.n/2
			return log[:last.off], log[last.off:cut]
		}},
		{"garbage after the last record", func(log []byte, _ extent) ([]byte, []byte) {
			return log, []byte("CPAR not a record")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			for i := 0; i < 3; i++ {
				if err := s.Put(ctx, "ns", fmt.Sprintf("ns:key%d", i), []byte("data")); err != nil {
					t.Fatal(err)
				}
			}
			path := logPath(dir, "ns")
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			kept, tail := tc.tear(log, recordExtent(t, s, "ns", "ns:key2"))
			if err := os.WriteFile(path, append(append([]byte(nil), kept...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := openStore(t, dir)
			if c := s2.Stats().Corrupt; c != 1 {
				t.Errorf("corrupt count = %d, want 1", c)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, kept) {
				t.Errorf("log after Open: %d bytes (%v), want the %d bytes of whole records", len(got), err, len(kept))
			}
			if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, tail) {
				t.Errorf("records.corrupt holds %q (%v), want the torn tail %q", got, err, tail)
			}
			whole := bytes.Count(kept, recordMagic[:])
			for i := 0; i < 3; i++ {
				_, ok, _ := s2.Get(ctx, "ns", fmt.Sprintf("ns:key%d", i))
				if want := i < whole; ok != want {
					t.Errorf("key%d served=%v, want %v", i, ok, want)
				}
			}
			if err := s2.Put(ctx, "ns", "ns:key3", []byte("later")); err != nil {
				t.Fatal(err)
			}
			for i, st := range []*Store{s2, openStore(t, dir)} {
				if got, ok, _ := st.Get(ctx, "ns", "ns:key3"); !ok || string(got) != "later" {
					t.Errorf("store %d: Put after recovery not readable: ok=%v got=%q", i, ok, got)
				}
			}
			if res, err := s2.GC(ctx); err != nil || res.Removed != 1 {
				t.Errorf("GC = %+v, %v; want records.corrupt removed", res, err)
			}
			if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
				t.Errorf("records.corrupt survived GC: %v", err)
			}
		})
	}
}

// TestStoreShared runs two Stores on one directory at once, as two
// replicas sharing a store do. Each serves what the other wrote without
// reopening, and GC compactions by one lose no write of the other: a
// write that landed in a replaced log would be missing from a Store
// opened afterwards.
func TestStoreShared(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	stores := []*Store{openStore(t, dir), openStore(t, dir)}
	const n = 40
	key := func(prefix string, i, j int) string { return fmt.Sprintf("ns:%s-%d-%d", prefix, i, j) }
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := s.Put(ctx, "ns", key("early", i, j), []byte(key("early", i, j))); err != nil {
					t.Error(err)
					return
				}
				// Read the other's records while it writes.
				if _, _, err := s.Get(ctx, "ns", key("early", 1-i, j)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range stores {
		for j := 0; j < n; j++ {
			want := key("early", 1-i, j)
			if got, ok, err := s.Get(ctx, "ns", want); err != nil || !ok || string(got) != want {
				t.Fatalf("store %d does not serve the other's %s: ok=%v err=%v", i, want, ok, err)
			}
		}
	}

	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < n; j++ {
			if err := stores[1].Put(ctx, "ns", key("late", 1, j), []byte(key("late", 1, j))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			// A superseded record gives each compaction something to drop.
			if err := stores[0].Put(ctx, "ns", key("early", 0, 0), []byte(key("early", 0, 0))); err != nil {
				t.Error(err)
				return
			}
			if _, err := stores[0].GC(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	var written []string
	for j := 0; j < n; j++ {
		written = append(written, key("early", 0, j), key("early", 1, j), key("late", 1, j))
	}
	for i, s := range append(stores, openStore(t, dir)) {
		for _, want := range written {
			if got, ok, err := s.Get(ctx, "ns", want); err != nil || !ok || string(got) != want {
				t.Errorf("store %d lost %s after compaction: ok=%v err=%v", i, want, ok, err)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ns := range []string{"aaa", "bbb"} {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("%s:key%02d", ns, i)
			val := fmt.Sprintf("payload of %s", key)
			want[ns+"\x00"+key] = val
			if err := s.Put(ctx, ns, key, []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	n, err := s.Export(ctx, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("exported %d records, want %d", n, len(want))
	}
	// Export is deterministic: a second export is byte-identical.
	var snap2 bytes.Buffer
	if _, err := s.Export(ctx, &snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Error("two exports of the same store differ")
	}
	// Import into a fresh store reproduces every record, and its own
	// export is byte-identical to the original snapshot.
	s2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Import(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	if _, err := ReadSnapshotInto(ctx, s2, got); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("record %q: got %q, want %q", k, got[k], v)
		}
	}
	var snap3 bytes.Buffer
	if _, err := s2.Export(ctx, &snap3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap3.Bytes()) {
		t.Error("export after import-round-trip is not byte-identical")
	}
}

// ReadSnapshotInto collects every store record into m (test helper).
func ReadSnapshotInto(ctx context.Context, s *Store, m map[string]string) (int, error) {
	var buf bytes.Buffer
	if _, err := s.Export(ctx, &buf); err != nil {
		return 0, err
	}
	return ReadSnapshot(&buf, func(ns, key string, payload []byte) error {
		m[ns+"\x00"+key] = string(payload)
		return nil
	})
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(ctx, "ns", fmt.Sprintf("ns:key%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := s.Export(ctx, &snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(good), nil); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	// Any truncation is rejected.
	for _, n := range []int{0, 3, 6, 20, len(good) / 2, len(good) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(good[:n]), nil); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Any single bit flip is rejected.
	for i := 0; i < len(good); i += 7 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x10
		if _, err := ReadSnapshot(bytes.NewReader(bad), nil); err == nil {
			t.Errorf("bit flip at offset %d accepted", i)
		}
	}
	// Trailing data is rejected.
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), good...), 0)), nil); err == nil {
		t.Error("trailing byte after trailer accepted")
	}
}

// jsonCodec is a test codec storing any JSON-marshalable value.
type jsonCodec struct{ ns string }

func (c jsonCodec) Namespace() string            { return c.ns }
func (c jsonCodec) Version() int                 { return 1 }
func (c jsonCodec) Encode(v any) ([]byte, error) { return json.Marshal(v) }
func (c jsonCodec) Decode(b []byte) (any, error) {
	var v map[string]string
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return v, nil
}

func TestTierWriteThrough(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier, err := NewTier(s, jsonCodec{ns: "tst"})
	if err != nil {
		t.Fatal(err)
	}
	val := map[string]string{"a": "1"}
	tier.Put("tst:key1", val)
	got, ok := tier.Get("tst:key1")
	if !ok {
		t.Fatal("tier miss after Put")
	}
	if m := got.(map[string]string); m["a"] != "1" {
		t.Fatalf("tier returned %v", got)
	}
	// Keys without a codec prefix bypass the tier entirely.
	tier.Put("srv\x00unit\x00x", val)
	if _, ok := tier.Get("srv\x00unit\x00x"); ok {
		t.Error("codec-less key served from disk")
	}
	tier.Put("other:key", val)
	if _, ok := tier.Get("other:key"); ok {
		t.Error("unregistered namespace served from disk")
	}
	// A payload the codec cannot decode is a counted miss.
	if err := s.Put(context.Background(), "tst", "tst:bad", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Get("tst:bad"); ok {
		t.Error("undecodable payload served")
	}
	if n := tier.DecodeErrors(); n != 1 {
		t.Errorf("DecodeErrors = %d, want 1", n)
	}
}

func TestTierSnapshotOnly(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier0, err := NewTier(s, jsonCodec{ns: "tst"})
	if err != nil {
		t.Fatal(err)
	}
	tier0.Put("tst:key1", map[string]string{"k": "v"})
	snapFile := filepath.Join(t.TempDir(), "s.snap")
	f, err := os.Create(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Export(ctx, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A tier with no store boots entirely from the snapshot.
	tier, err := NewTier(nil, jsonCodec{ns: "tst"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := tier.LoadSnapshotFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d records, want 1", n)
	}
	got, ok := tier.Get("tst:key1")
	if !ok || got.(map[string]string)["k"] != "v" {
		t.Fatalf("snapshot-only Get: ok=%v got=%v", ok, got)
	}
	// Writes are dropped, not errors.
	tier.Put("tst:key2", map[string]string{})
	if _, ok := tier.Get("tst:key2"); ok {
		t.Error("snapshot-only tier persisted a Put")
	}
}

// TestGoldenSnapshot pins the snapshot byte format: today's code must
// read the checked-in snapshot written when the format was introduced.
// Regenerate with -update only on a deliberate format bump (and bump
// snapshotVersion/recordVersion accordingly).
func TestGoldenSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "store_golden.snap")
	if *update {
		ctx := context.Background()
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("gold:%064d", i)
			val := fmt.Sprintf(`{"record":%d,"body":"golden artifact %d"}`, i, i)
			if err := s.Put(ctx, "gold", key, []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(golden)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Export(ctx, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("golden snapshot missing (run with -update to create): %v", err)
	}
	defer f.Close()
	got := map[string]string{}
	n, err := ReadSnapshot(f, func(ns, key string, payload []byte) error {
		got[key] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("today's code cannot read the golden snapshot: %v", err)
	}
	if n != 4 {
		t.Fatalf("golden snapshot has %d records, want 4", n)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("gold:%064d", i)
		want := fmt.Sprintf(`{"record":%d,"body":"golden artifact %d"}`, i, i)
		if got[key] != want {
			t.Errorf("golden record %d: got %q, want %q", i, got[key], want)
		}
	}
	// The golden snapshot imports cleanly into a fresh store, and that
	// store exports it back byte for byte: the export order (namespace,
	// then the hex SHA-256 of the key) is part of the format.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Import(context.Background(), f); err != nil {
		t.Fatalf("golden snapshot import failed: %v", err)
	}
	var out bytes.Buffer
	if _, err := s.Export(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("golden snapshot does not export back byte-identically: %d bytes out, %d in", out.Len(), len(want))
	}
	// The order does not depend on the order of the writes.
	rev, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i >= 0; i-- {
		key := fmt.Sprintf("gold:%064d", i)
		if err := rev.Put(context.Background(), "gold", key, []byte(got[key])); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if _, err := rev.Export(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("records written in reverse order do not export as the golden snapshot")
	}
}

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func logPath(dir, ns string) string { return filepath.Join(dir, ns, logName) }

// recordExtent returns where the index says key's record lies.
func recordExtent(t *testing.T, s *Store, ns, key string) extent {
	t.Helper()
	e, ok := s.logs[ns].index[sha256.Sum256([]byte(key))]
	if !ok {
		t.Fatalf("no record of %s indexed", key)
	}
	return e
}

func recordLen(t *testing.T, ns, key, payload string) int64 {
	t.Helper()
	rec, err := encodeRecord(ns, key, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(rec))
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// benchKeys returns n cache keys shaped like the dca namespace's.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = "dca:" + hex.EncodeToString(sum[:])
	}
	return keys
}

// benchPayload is about the mean size of a dca record's payload.
var benchPayload = bytes.Repeat([]byte{'x'}, 512)

// BenchmarkStorePut appends records of distinct keys to one log.
func BenchmarkStorePut(b *testing.B) {
	ctx := context.Background()
	s := openStore(b, b.TempDir())
	keys := benchKeys(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(ctx, "dca", keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet reads records back through the index.
func BenchmarkStoreGet(b *testing.B) {
	ctx := context.Background()
	s := openStore(b, b.TempDir())
	keys := benchKeys(1024)
	for _, k := range keys {
		if err := s.Put(ctx, "dca", k, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(ctx, "dca", keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}
