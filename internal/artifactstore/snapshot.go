package artifactstore

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"cnnperf/internal/obs"
)

// A snapshot is the whole store as one file: a header, a stream of the
// same self-delimiting records the store's logs hold, and a trailer
// carrying a record count and a running CRC so truncation at any point
// is detected.
//
//	header:  "CPSH" + version uint16
//	records: zero or more framed records (see record.go)
//	trailer: "CPST" + count uint64 + crc uint32 over all record bytes
//
// Export writes the live records in deterministic order (sorted
// namespaces, then sorted SHA-256 of the key), so two stores holding the
// same records export byte-identical snapshots, whatever order the
// records were written in.

const snapshotVersion = 1

var (
	snapshotMagic = [4]byte{'C', 'P', 'S', 'H'}
	trailerMagic  = [4]byte{'C', 'P', 'S', 'T'}
)

// Export streams the records of the given namespaces to w as a
// snapshot; with no namespace given, every record in the store.
func (s *Store) Export(ctx context.Context, w io.Writer, namespaces ...string) (int, error) {
	_, span := obs.Start(ctx, "store.snapshot")
	defer span.End()
	bw := bufio.NewWriter(w)
	head := make([]byte, 0, 6)
	head = append(head, snapshotMagic[:]...)
	head = binary.BigEndian.AppendUint16(head, snapshotVersion)
	if _, err := bw.Write(head); err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	nss, err := s.namespaces(namespaces)
	if err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	count := uint64(0)
	write := func(_ [sha256.Size]byte, rec []byte) error {
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("artifactstore: %w", err)
		}
		crc.Write(rec)
		count++
		return nil
	}
	for _, ns := range nss {
		l, err := s.log(ns)
		if err != nil {
			return 0, err
		}
		// records verifies each record before it is written: a corrupt
		// one must not poison the snapshot.
		l.mu.Lock()
		_, err = l.sync(s)
		if err == nil {
			err = l.records(ctx, s, write)
		}
		l.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	tail := make([]byte, 0, 16)
	tail = append(tail, trailerMagic[:]...)
	tail = binary.BigEndian.AppendUint64(tail, count)
	tail = binary.BigEndian.AppendUint32(tail, crc.Sum32())
	if _, err := bw.Write(tail); err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("artifactstore: %w", err)
	}
	span.SetAttr(obs.Int("records", int(count)))
	return int(count), nil
}

// ReadSnapshot parses a snapshot stream, calling fn for each verified
// record. The whole stream is validated: header, per-record CRCs, and
// the trailer's count and running CRC must all check out, so a
// truncated or bit-flipped snapshot is rejected rather than partially
// applied.
func ReadSnapshot(r io.Reader, fn func(ns, key string, payload []byte) error) (int, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 6)
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("artifactstore: reading snapshot header: %w", err)
	}
	if [4]byte(head[:4]) != snapshotMagic {
		return 0, fmt.Errorf("artifactstore: bad snapshot magic %q", head[:4])
	}
	if v := binary.BigEndian.Uint16(head[4:6]); v != snapshotVersion {
		return 0, fmt.Errorf("artifactstore: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	crc := crc32.NewIEEE()
	count := uint64(0)
	for {
		// Peek for the trailer magic before attempting a record read:
		// both records and the trailer start at this position.
		peek, err := br.Peek(4)
		if err != nil {
			return 0, fmt.Errorf("artifactstore: truncated snapshot (no trailer): %w", err)
		}
		if [4]byte(peek) == trailerMagic {
			break
		}
		ns, key, payload, raw, err := readRecord(br)
		if err != nil {
			return 0, fmt.Errorf("artifactstore: snapshot record %d: %w", count, err)
		}
		crc.Write(raw)
		count++
		if fn != nil {
			if err := fn(ns, key, payload); err != nil {
				return 0, err
			}
		}
	}
	tail := make([]byte, 16)
	if _, err := io.ReadFull(br, tail); err != nil {
		return 0, fmt.Errorf("artifactstore: truncated snapshot trailer: %w", err)
	}
	if wantCount := binary.BigEndian.Uint64(tail[4:12]); wantCount != count {
		return 0, fmt.Errorf("artifactstore: snapshot trailer claims %d records, read %d", wantCount, count)
	}
	if wantCRC := binary.BigEndian.Uint32(tail[12:16]); wantCRC != crc.Sum32() {
		return 0, fmt.Errorf("artifactstore: snapshot CRC mismatch: computed %08x, stored %08x", crc.Sum32(), wantCRC)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, fmt.Errorf("artifactstore: trailing data after snapshot trailer")
	}
	return int(count), nil
}

// Import loads the records of a snapshot into the store: those of the
// given namespaces, or every record when none is given, and returns how
// many it wrote. The stream is validated end-to-end before this returns
// nil; records are written as they arrive (each individually verified),
// so a truncated snapshot can leave some records imported — all of them
// valid.
func (s *Store) Import(ctx context.Context, r io.Reader, namespaces ...string) (int, error) {
	n := 0
	_, err := ReadSnapshot(r, func(ns, key string, payload []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !validNamespace(ns) {
			return fmt.Errorf("artifactstore: snapshot record has invalid namespace %q", ns)
		}
		if !inNamespaces(namespaces, ns) {
			return nil
		}
		if err := s.Put(ctx, ns, key, payload); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
