package analysiscache

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"hash"
	"sort"
	"strconv"
	"sync"

	"cnnperf/internal/ptx"
)

// CanonicalKernelText renders a kernel in a name-independent normal
// form: the entry name is replaced by a placeholder and every parameter
// is renamed positionally (with its uses in the body rewritten), so two
// kernels that differ only in the fusion counter baked into their names
// — the common case across CNN zoo models sharing layer shapes —
// canonicalise to the same text. Everything that can change the analysis
// result (register banks, labels, predicates, opcodes, operands) is
// preserved verbatim.
func CanonicalKernelText(k *ptx.Kernel) string {
	return string(appendCanonical(nil, k))
}

// appendCanonical appends the canonical text of k to dst.
func appendCanonical(dst []byte, k *ptx.Kernel) []byte {
	dst = append(dst, ".entry $kernel(\n"...)
	for i, p := range k.Params {
		dst = append(dst, ".param "...)
		dst = append(dst, p.Type...)
		dst = append(dst, " $arg"...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, ")\n"...)
	for _, r := range k.Regs {
		dst = append(dst, ".reg "...)
		dst = append(dst, r.Type...)
		dst = append(dst, ' ')
		dst = append(dst, r.Prefix...)
		dst = append(dst, '<')
		dst = strconv.AppendInt(dst, int64(r.Count), 10)
		dst = append(dst, ">;\n"...)
	}
	var ordered []int
	var small [4]ptx.Label // a generated kernel has one or two labels
	labels := k.AppendLabels(small[:0])
	for i := range k.Body {
		dst, labels = appendLabels(dst, labels, i)
		start := len(dst)
		dst = k.Body[i].AppendTo(dst)
		if mentionsParam(dst[start:], k.Params) {
			if ordered == nil {
				ordered = byNameLength(k.Params)
			}
			// The line is rewritten after the rendered copy, which then
			// moves into its place.
			end := len(dst)
			dst = appendRenamed(dst, dst[start:end], k.Params, ordered)
			dst = append(dst[:start], dst[end:]...)
		}
		dst = append(dst, '\n')
	}
	dst, _ = appendLabels(dst, labels, len(k.Body))
	return dst
}

// mentionsParam reports whether some parameter name occurs in line.
func mentionsParam(line []byte, params []ptx.Param) bool {
	for _, p := range params {
		if contains(line, p.Name) {
			return true
		}
	}
	return false
}

// contains is bytes.Contains(b, []byte(s)) without the conversion,
// which allocates for a name longer than 32 bytes.
func contains(b []byte, s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i+len(s) <= len(b); i++ {
		j := bytes.IndexByte(b[i:len(b)-len(s)+1], s[0])
		if j < 0 {
			return false
		}
		if i += j; hasPrefix(b[i:], s) {
			return true
		}
	}
	return false
}

// hasPrefix is bytes.HasPrefix(b, []byte(s)) without the conversion.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// byNameLength orders parameter indices longest name first, so a
// parameter whose name prefixes another ("p_1" vs "p_10") can never
// steal the rewrite. Equal names keep the order sort.Slice gives them:
// the first wins, as it did in the strings.Replacer the persisted keys
// were first written with.
func byNameLength(params []ptx.Param) []int {
	ordered := make([]int, len(params))
	for i := range ordered {
		ordered[i] = i
	}
	sort.Slice(ordered, func(a, b int) bool {
		return len(params[ordered[a]].Name) > len(params[ordered[b]].Name)
	})
	return ordered
}

// appendRenamed appends line with every parameter name replaced by its
// positional "$argN", matching strings.NewReplacer over the pairs in
// ordered: scanning left to right, the first name in ordered that
// starts at a position is replaced and the scan resumes after it. The
// replacement works on the whole line, not per operand, so a hostile
// name ("ld", "%r1", one containing ';') is rewritten wherever it
// occurs. An empty name matches at every position where no other name
// does, the end of the line included.
func appendRenamed(dst, line []byte, params []ptx.Param, ordered []int) []byte {
	for i := 0; i <= len(line); {
		n := -1
		for _, j := range ordered {
			if hasPrefix(line[i:], params[j].Name) {
				n = j
				break
			}
		}
		if n >= 0 {
			dst = strconv.AppendInt(append(dst, "$arg"...), int64(n), 10)
		}
		if n < 0 || params[n].Name == "" {
			if i < len(line) {
				dst = append(dst, line[i])
			}
			i++
			continue
		}
		i += len(params[n].Name)
	}
	return dst
}

// appendLabels appends the labels at body index i of labels, a label
// table in AppendLabels order whose entries before i are consumed, and
// returns the table past them. Labels outside the body never print.
func appendLabels(dst []byte, labels []ptx.Label, i int) ([]byte, []ptx.Label) {
	for ; len(labels) > 0 && labels[0].Index <= i; labels = labels[1:] {
		if labels[0].Index == i {
			dst = append(dst, labels[0].Name...)
			dst = append(dst, ":\n"...)
		}
	}
	return dst, labels
}

// Fingerprint is the content address of a kernel: the SHA-256 of its
// canonical text. Identical kernels (regardless of name) share a
// fingerprint; kernels differing in any instruction, operand, label or
// register bank do not.
func Fingerprint(k *ptx.Kernel) string {
	sum := sha256.Sum256(appendCanonical(nil, k))
	return hex.EncodeToString(sum[:])
}

// Digest is a kernel's content digest: its canonical text, rendered
// and hashed once, from which every per-kernel cache key derives. It
// holds the SHA-256 state after the length-framed canonical text, so a
// key costs only the hashing of its extras. Construct with NewDigest.
type Digest struct{ state []byte }

// hasher is the scratch state of one digest or key: a SHA-256 and the
// buffer NewDigest renders canonical text into (the text is
// length-framed before hashing, so it is rendered whole first) or Key
// frames extras in. Neither reaches a digest or a key, which copy
// what they keep.
type hasher struct {
	h   hash.Hash
	buf []byte
}

var hashers = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// NewDigest renders and hashes the canonical text of k.
func NewDigest(k *ptx.Kernel) Digest {
	hs := hashers.Get().(*hasher)
	text := appendCanonical(hs.buf[:0], k)
	framed := appendFrame(text, len(text)) // the frame goes after the text
	hs.h.Reset()
	hs.h.Write(framed[len(text):])
	hs.h.Write(text)
	state, _ := hs.h.(encoding.BinaryMarshaler).MarshalBinary() // cannot fail for SHA-256
	hs.buf = framed
	hashers.Put(hs)
	return Digest{state: state}
}

// appendFrame appends the length prefix "<n>\x00" that precedes every
// hashed field.
func appendFrame(dst []byte, n int) []byte {
	return append(strconv.AppendInt(dst, int64(n), 10), 0)
}

// Key derives a cache key in the given namespace from the digested
// kernel plus any extra discriminators (launch geometry, parameter
// values, executor options). Extras are length-framed before hashing so
// no two distinct extra lists can collide by concatenation.
func (d Digest) Key(ns string, extras ...string) string {
	hs := hashers.Get().(*hasher)
	defer hashers.Put(hs)
	if err := hs.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(d.state); err != nil {
		panic("analysiscache: key from a zero Digest")
	}
	buf := hs.buf[:0]
	for _, e := range extras {
		buf = append(appendFrame(buf, len(e)), e...)
	}
	hs.h.Write(buf)
	var sum [sha256.Size]byte
	buf = append(append(buf[:0], ns...), ':')
	buf = hex.AppendEncode(buf, hs.h.Sum(sum[:0]))
	hs.buf = buf
	return string(buf)
}

// KernelKey is NewDigest(k).Key(ns, extras...). Callers deriving more
// than one key from a kernel keep the Digest instead.
func KernelKey(ns string, k *ptx.Kernel, extras ...string) string {
	return NewDigest(k).Key(ns, extras...)
}
