package artifactstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreDecode throws arbitrary bytes at both decode surfaces — the
// single-record frame decoder and the snapshot stream reader. Neither
// may panic, and anything either accepts must round-trip byte-identically
// through the encoder (the store only ever serves what was stored).
func FuzzStoreDecode(f *testing.F) {
	rec, err := encodeRecord("ns", "ns:key", []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add([]byte{})
	f.Add([]byte("CPAR"))
	f.Add(append([]byte(nil), rec[:len(rec)-2]...)) // truncated
	// A minimal snapshot: header + one record + trailer.
	var snapStore bytes.Buffer
	{
		s, err := Open(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		ctx := context.Background()
		if err := s.Put(ctx, "ns", "ns:key", []byte("payload")); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Export(ctx, &snapStore); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(snapStore.Bytes())
	f.Add([]byte("CPSH\x00\x01CPST\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if ns, key, payload, err := decodeRecord(data); err == nil {
			re, rerr := encodeRecord(ns, key, payload)
			if rerr != nil {
				t.Fatalf("decoded record does not re-encode: %v", rerr)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted record is not canonical: %d in, %d out", len(data), len(re))
			}
		}
		n, err := ReadSnapshot(bytes.NewReader(data), func(ns, key string, payload []byte) error {
			if ns == "" || key == "" {
				t.Fatal("snapshot delivered a record with empty identity")
			}
			return nil
		})
		if err == nil && n < 0 {
			t.Fatal("negative record count")
		}
	})
}

// FuzzStoreLog opens arbitrary bytes as a namespace log. Open, Get,
// Verify and Export must not panic; Open may only cut a tail off the
// log into records.corrupt; and every payload served must be one that a
// whole, CRC-clean record of that namespace holds under that key.
func FuzzStoreLog(f *testing.F) {
	rec := func(ns, key, payload string) []byte {
		b, err := encodeRecord(ns, key, []byte(payload))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	a, b := rec("ns", "ns:a", "payload a"), rec("ns", "ns:b", "payload b")
	flipped := append([]byte(nil), b...)
	flipped[recordHeader] ^= 1
	f.Add(cat(a, b))
	f.Add(cat(a, b[:len(b)/2]))
	f.Add(cat(a, flipped, b))
	f.Add(cat(rec("other", "ns:a", "payload x"), a))
	f.Add(cat(a, rec("ns", "ns:a", "newer a")))
	f.Add([]byte("CPAR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		dir := t.TempDir()
		path := logPath(dir, "ns")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		kept, _ := os.ReadFile(path)
		tail, _ := os.ReadFile(path + ".corrupt")
		if !bytes.Equal(append(kept, tail...), data) {
			t.Fatalf("Open did more than cut a tail: kept %d and moved %d of %d bytes", len(kept), len(tail), len(data))
		}
		served := func(ns, key string, payload []byte) {
			t.Helper()
			if ns != "ns" || !bytes.Contains(data, rec(ns, key, string(payload))) {
				t.Fatalf("served (%q, %q) from no whole record of the log", ns, key)
			}
		}
		if payload, ok, err := s.Get(ctx, "ns", "ns:a"); err != nil {
			t.Fatalf("Get: %v", err)
		} else if ok {
			served("ns", "ns:a", payload)
		}
		var snap bytes.Buffer
		n, err := s.Export(ctx, &snap)
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		if _, err := ReadSnapshot(&snap, func(ns, key string, payload []byte) error {
			served(ns, key, payload)
			got, ok, err := s.Get(ctx, ns, key)
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Fatalf("exported %q but Get gives ok=%v err=%v", key, ok, err)
			}
			return nil
		}); err != nil {
			t.Fatalf("Export wrote a snapshot that does not read back: %v", err)
		}
		res, err := s.Verify(ctx)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if res.Records != n {
			t.Fatalf("Verify counts %d records, Export wrote %d", res.Records, n)
		}
	})
}
