package artifactstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The on-disk record framing. Every artifact — whether it lives in a
// namespace's log or in a snapshot stream — is a self-delimiting,
// CRC-guarded record:
//
//	magic      [4]byte  "CPAR"
//	version    uint16   recordVersion (big endian, like all integers)
//	nsLen      uint16   namespace length
//	keyLen     uint32   key length
//	payloadLen uint32   payload length
//	ns         []byte
//	key        []byte
//	payload    []byte
//	crc        uint32   CRC-32 (IEEE) of everything above
//
// The namespace and full cache key are stored inside the record, not
// only in the log it sits in or the index that points at it, so a read
// can verify it got the artifact it asked for: a hash collision, a
// record in the wrong log or a tampered record all fail the identity
// check or the CRC and are treated as corruption.

const (
	recordVersion = 1
	recordHeader  = 4 + 2 + 2 + 4 + 4 // magic + version + lengths

	// Decoder sanity caps: no legitimate record exceeds these, so a
	// corrupted length field cannot drive a multi-gigabyte allocation.
	maxNamespaceLen = 128
	maxKeyLen       = 4 << 10
	maxPayloadLen   = 1 << 30
)

var recordMagic = [4]byte{'C', 'P', 'A', 'R'}

// encodeRecord frames one artifact.
func encodeRecord(ns, key string, payload []byte) ([]byte, error) {
	if len(ns) == 0 || len(ns) > maxNamespaceLen {
		return nil, fmt.Errorf("artifactstore: namespace length %d out of range [1,%d]", len(ns), maxNamespaceLen)
	}
	if len(key) == 0 || len(key) > maxKeyLen {
		return nil, fmt.Errorf("artifactstore: key length %d out of range [1,%d]", len(key), maxKeyLen)
	}
	if len(payload) > maxPayloadLen {
		return nil, fmt.Errorf("artifactstore: payload length %d exceeds %d", len(payload), maxPayloadLen)
	}
	b := make([]byte, 0, recordHeader+len(ns)+len(key)+len(payload)+4)
	b = append(b, recordMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, recordVersion)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ns)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, ns...)
	b = append(b, key...)
	b = append(b, payload...)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

// decodeRecord parses and verifies one framed artifact held entirely in
// b. Trailing bytes after the record are rejected.
func decodeRecord(b []byte) (ns, key string, payload []byte, err error) {
	nsb, keyb, p, err := splitRecord(b)
	if err != nil {
		return "", "", nil, err
	}
	return string(nsb), string(keyb), append([]byte(nil), p...), nil
}

// frameLen checks the header at the front of head and returns the length
// of the whole record it starts.
func frameLen(head []byte) (int, error) {
	if len(head) < recordHeader {
		return 0, fmt.Errorf("artifactstore: truncated record header (%d bytes)", len(head))
	}
	if [4]byte(head[:4]) != recordMagic {
		return 0, fmt.Errorf("artifactstore: bad record magic %q", head[:4])
	}
	if v := binary.BigEndian.Uint16(head[4:6]); v != recordVersion {
		return 0, fmt.Errorf("artifactstore: unsupported record version %d (want %d)", v, recordVersion)
	}
	nsLen := int(binary.BigEndian.Uint16(head[6:8]))
	keyLen := int(binary.BigEndian.Uint32(head[8:12]))
	payloadLen := int(binary.BigEndian.Uint32(head[12:16]))
	if nsLen == 0 || nsLen > maxNamespaceLen || keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return 0, fmt.Errorf("artifactstore: implausible record lengths ns=%d key=%d payload=%d", nsLen, keyLen, payloadLen)
	}
	return recordHeader + nsLen + keyLen + payloadLen + 4, nil
}

// splitRecord verifies the one record b holds and returns its fields as
// slices of b.
func splitRecord(b []byte) (ns, key, payload []byte, err error) {
	total, err := frameLen(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(b) < total {
		return nil, nil, nil, fmt.Errorf("artifactstore: truncated record: have %d of %d bytes", len(b), total)
	}
	if len(b) > total {
		return nil, nil, nil, fmt.Errorf("artifactstore: %d trailing bytes after record", len(b)-total)
	}
	want := binary.BigEndian.Uint32(b[total-4:])
	if got := crc32.ChecksumIEEE(b[:total-4]); got != want {
		return nil, nil, nil, fmt.Errorf("artifactstore: record CRC mismatch: computed %08x, stored %08x", got, want)
	}
	nsEnd := recordHeader + int(binary.BigEndian.Uint16(b[6:8]))
	keyEnd := nsEnd + int(binary.BigEndian.Uint32(b[8:12]))
	return b[recordHeader:nsEnd], b[nsEnd:keyEnd], b[keyEnd : total-4 : total-4], nil
}

// readRecord reads one framed artifact from a stream. io.EOF is
// returned untouched when the stream ends cleanly before the magic;
// any mid-record truncation becomes an explicit error.
func readRecord(r *bufio.Reader) (ns, key string, payload []byte, raw []byte, err error) {
	head := make([]byte, recordHeader)
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		if err == io.EOF {
			return "", "", nil, nil, io.EOF
		}
		return "", "", nil, nil, fmt.Errorf("artifactstore: reading record: %w", err)
	}
	if _, err := io.ReadFull(r, head[1:]); err != nil {
		return "", "", nil, nil, fmt.Errorf("artifactstore: truncated record header: %w", err)
	}
	total, err := frameLen(head)
	if err != nil {
		return "", "", nil, nil, err
	}
	raw = make([]byte, total)
	copy(raw, head)
	if _, err := io.ReadFull(r, raw[recordHeader:]); err != nil {
		return "", "", nil, nil, fmt.Errorf("artifactstore: truncated record body: %w", err)
	}
	ns, key, payload, err = decodeRecord(raw)
	if err != nil {
		return "", "", nil, nil, err
	}
	return ns, key, payload, raw, nil
}
