package analysiscache

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

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
	var repl *strings.Replacer
	if len(k.Params) > 0 {
		// Longest name first, so a parameter whose name prefixes another
		// ("p_1" vs "p_10") can never steal the rewrite.
		ordered := make([]int, len(k.Params))
		for i := range ordered {
			ordered[i] = i
		}
		sort.Slice(ordered, func(a, b int) bool {
			return len(k.Params[ordered[a]].Name) > len(k.Params[ordered[b]].Name)
		})
		pairs := make([]string, 0, 2*len(k.Params))
		for _, i := range ordered {
			pairs = append(pairs, k.Params[i].Name, fmt.Sprintf("$arg%d", i))
		}
		repl = strings.NewReplacer(pairs...)
	}

	var b strings.Builder
	b.WriteString(".entry $kernel(\n")
	for i, p := range k.Params {
		fmt.Fprintf(&b, ".param %s $arg%d\n", p.Type, i)
	}
	b.WriteString(")\n")
	for _, r := range k.Regs {
		fmt.Fprintf(&b, ".reg %s %s<%d>;\n", r.Type, r.Prefix, r.Count)
	}
	for i, in := range k.Body {
		for _, lbl := range sortedLabels(k.LabelsAt(i)) {
			b.WriteString(lbl)
			b.WriteString(":\n")
		}
		line := in.String()
		if repl != nil {
			line = repl.Replace(line)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, lbl := range sortedLabels(k.LabelsAt(len(k.Body))) {
		b.WriteString(lbl)
		b.WriteString(":\n")
	}
	return b.String()
}

func sortedLabels(ls []string) []string {
	out := append([]string(nil), ls...)
	sort.Strings(out)
	return out
}

// Fingerprint is the content address of a kernel: the SHA-256 of its
// canonical text. Identical kernels (regardless of name) share a
// fingerprint; kernels differing in any instruction, operand, label or
// register bank do not.
func Fingerprint(k *ptx.Kernel) string {
	sum := sha256.Sum256([]byte(CanonicalKernelText(k)))
	return hex.EncodeToString(sum[:])
}

// Digest is a kernel's content digest: its canonical text, rendered
// and hashed once, from which every per-kernel cache key derives. It
// holds the SHA-256 state after the length-framed canonical text, so a
// key costs only the hashing of its extras. Construct with NewDigest.
type Digest struct{ state []byte }

// NewDigest renders and hashes the canonical text of k.
func NewDigest(k *ptx.Kernel) Digest {
	h := sha256.New()
	text := CanonicalKernelText(k)
	fmt.Fprintf(h, "%d\x00%s", len(text), text)
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary() // cannot fail for SHA-256
	return Digest{state: state}
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
	for _, e := range extras {
		fmt.Fprintf(h, "%d\x00%s", len(e), e)
	}
	return ns + ":" + hex.EncodeToString(h.Sum(nil))
}

// KernelKey is NewDigest(k).Key(ns, extras...). Callers deriving more
// than one key from a kernel keep the Digest instead.
func KernelKey(ns string, k *ptx.Kernel, extras ...string) string {
	return NewDigest(k).Key(ns, extras...)
}
