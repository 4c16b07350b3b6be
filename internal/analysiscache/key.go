package analysiscache

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"slices"
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
	for i := range k.Body {
		dst = appendLabels(dst, k.LabelsAt(i))
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
	return appendLabels(dst, k.LabelsAt(len(k.Body)))
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

// appendLabels appends one "name:" line per label, sorted by name.
func appendLabels(dst []byte, labels []string) []byte {
	if len(labels) > 1 {
		labels = slices.Clone(labels)
		slices.Sort(labels)
	}
	for _, l := range labels {
		dst = append(dst, l...)
		dst = append(dst, ":\n"...)
	}
	return dst
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

// textBufs holds the buffers NewDigest renders canonical text into. The
// text is length-framed before hashing, so it is rendered whole first.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewDigest renders and hashes the canonical text of k.
func NewDigest(k *ptx.Kernel) Digest {
	buf := textBufs.Get().(*[]byte)
	text := appendCanonical((*buf)[:0], k)
	framed := appendFrame(text, len(text)) // the frame goes after the text
	h := sha256.New()
	h.Write(framed[len(text):])
	h.Write(text)
	*buf = framed
	textBufs.Put(buf)
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary() // cannot fail for SHA-256
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
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(d.state); err != nil {
		panic("analysiscache: key from a zero Digest")
	}
	buf := make([]byte, 0, 256)
	for _, e := range extras {
		buf = append(appendFrame(buf, len(e)), e...)
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	buf = append(append(buf[:0], ns...), ':')
	return string(hex.AppendEncode(buf, h.Sum(sum[:0])))
}

// KernelKey is NewDigest(k).Key(ns, extras...). Callers deriving more
// than one key from a kernel keep the Digest instead.
func KernelKey(ns string, k *ptx.Kernel, extras ...string) string {
	return NewDigest(k).Key(ns, extras...)
}
