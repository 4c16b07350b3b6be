package analysiscache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// digestAllocLimit bounds NewDigest's allocations on one generated
// kernel (TestDigestAllocs): the marshalled SHA-256 state (the hasher
// is pooled), plus the parameter order (the index slice and
// sort.Slice's two).
const digestAllocLimit = 4

// goldenKernel has parameter names that prefix one another (p_1 and
// p_10) and a label after its last instruction.
const goldenKernel = ".version 6.0\n.target sm_61\n.address_size 64\n" +
	".visible .entry golden(\n.param .u64 p_1,\n.param .u64 p_10\n)\n{\n" +
	"ld.param.u64 %rd1, [p_10];\nld.param.u64 %rd2, [p_1];\nadd.s64 %rd3, %rd1, %rd2;\n" +
	"setp.eq.s64 %p1, %rd3, 0;\n@%p1 bra END;\nst.global.u64 [%rd1], %rd3;\nret;\nEND:\n}\n"

// TestKernelKeyGolden pins the exact key bytes of one kernel in each
// kernel namespace. Persisted stores and snapshots are addressed by
// these bytes, so a change here orphans every record already written.
// The digest must derive the same bytes as KernelKey.
func TestKernelKeyGolden(t *testing.T) {
	m, err := ptx.Parse(goldenKernel)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels[0]
	const wantText = ".entry $kernel(\n.param .u64 $arg0\n.param .u64 $arg1\n)\n" +
		"ld.param.u64 %rd1, [$arg1];\nld.param.u64 %rd2, [$arg0];\nadd.s64 %rd3, %rd1, %rd2;\n" +
		"setp.eq.s64 %p1, %rd3, 0;\n@%p1 bra END;\nst.global.u64 [%rd1], %rd3;\nret;\nEND:\n"
	if got := analysiscache.CanonicalKernelText(k); got != wantText {
		t.Fatalf("canonical text:\n%q\nwant\n%q", got, wantText)
	}
	d := analysiscache.NewDigest(k)
	for _, c := range []struct {
		ns     string
		extras []string
		want   string
	}{
		{"ptxa", nil, "ptxa:4b84c35c49f84432973c628c6a48a12a489617290184ec4a89ecd081976c46a9"},
		{"dcac", []string{"full=false;maxsteps=1000000;layout=2"},
			"dcac:e9bd7d8a46ff2bc4a3b7d390f15ba843547e13c0d0bc0959a7f7e70fd20fb1cd"},
		{"dca", []string{"grid=2;block=32;threads=64;full=false;maxsteps=0;lint=true;ref=false;bb=false", "0=7;1=20;"},
			"dca:c133c7be439f7fc823994442823396ebae3ffe2bbf496dd18e5e9c588b12dee1"},
	} {
		if got := analysiscache.KernelKey(c.ns, k, c.extras...); got != c.want {
			t.Errorf("KernelKey(%s) = %s, want %s", c.ns, got, c.want)
		}
		// Twice: deriving one key must leave the digest's state intact.
		for i := 0; i < 2; i++ {
			if got := d.Key(c.ns, c.extras...); got != c.want {
				t.Errorf("Digest.Key(%s) #%d = %s, want %s", c.ns, i, got, c.want)
			}
		}
	}
}

// oracleCanonicalText is the line renderer the digest replaced, kept as
// the reference its bytes are checked against: one strings.Replacer per
// kernel, run over every rendered instruction line.
func oracleCanonicalText(k *ptx.Kernel) string {
	var repl *strings.Replacer
	if len(k.Params) > 0 {
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
	sortedLabels := func(ls []string) []string {
		out := append([]string(nil), ls...)
		sort.Strings(out)
		return out
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

// oracleKey is Digest.Key over the oracle's text, framed with fmt.
func oracleKey(text, ns string, extras ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%s", len(text), text)
	for _, e := range extras {
		fmt.Fprintf(h, "%d\x00%s", len(e), e)
	}
	return ns + ":" + hex.EncodeToString(h.Sum(nil))
}

// checkAgainstOracle checks the canonical text, the fingerprint and the
// digest's keys of k against the oracle.
func checkAgainstOracle(t *testing.T, k *ptx.Kernel) {
	t.Helper()
	want := oracleCanonicalText(k)
	if got := analysiscache.CanonicalKernelText(k); got != want {
		t.Fatalf("canonical text of %s:\n%q\nwant\n%q", k.Name, got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got := analysiscache.Fingerprint(k); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("fingerprint of %s differs from the oracle text's", k.Name)
	}
	d := analysiscache.NewDigest(k)
	for _, extras := range [][]string{nil, {""}, {"grid=2;block=32", "0=7;1=20;"}} {
		if got, want := d.Key("dca", extras...), oracleKey(want, "dca", extras...); got != want {
			t.Fatalf("key of %s with extras %q = %s, want %s", k.Name, extras, got, want)
		}
	}
}

// checkModule checks every kernel of m against the oracle, then again
// with its first parameter renamed to name. The rename reaches names
// the parser never yields, such as the empty one.
func checkModule(t *testing.T, m *ptx.Module, name string) {
	t.Helper()
	for _, k := range m.Kernels {
		checkAgainstOracle(t, k)
		if len(k.Params) == 0 {
			continue
		}
		renamed := *k
		renamed.Params = append([]ptx.Param(nil), k.Params...)
		renamed.Params[0].Name = name
		checkAgainstOracle(t, &renamed)
	}
}

const ptxHeader = ".version 6.0\n.target sm_61\n.address_size 64\n"

// hostileParamCases name parameters after text that occurs elsewhere in
// the line: an opcode prefix, a register, a label, a prefix of another
// parameter, and the punctuation of the instruction syntax.
var hostileParamCases = []struct{ name, src, rename string }{
	{"golden", goldenKernel, "p_1"},
	{"opcode prefix", ptxHeader + ".visible .entry k(\n.param .u64 ld\n)\n{\nld.param.u64 %rd1, [ld];\nld.global.u64 %rd2, [%rd1];\nret;\n}\n", "ld"},
	{"register", ptxHeader + ".visible .entry k(\n.param .u64 %r1\n)\n{\nmov.u32 %r1, %tid.x;\nadd.s32 %r10, %r1, 1;\nret;\n}\n", "%r1"},
	{"label", ptxHeader + ".visible .entry k(\n.param .u64 END\n)\n{\nsetp.eq.s32 %p1, %r1, 0;\n@%p1 bra END;\nret;\nEND:\n}\n", "END"},
	{"prefix pair", goldenKernel, "p_10"},
	{"semicolon", goldenKernel, ";"},
	{"at sign", goldenKernel, "@"},
	{"bang", ptxHeader + ".visible .entry k(\n.param .u64 p\n)\n{\nsetp.eq.s32 %p1, %r1, 0;\n@!%p1 bra END;\nret;\nEND:\n}\n", "!"},
	{"duplicate one-byte names", ptxHeader + ".visible .entry k(\n.param .u64 a,\n.param .u64 b\n)\n{\nld.param.u64 %rd1, [b];\nadd.s64 %rd2, %rd1, %rd1;\nret;\n}\n", "b"},
	{"empty name", goldenKernel, ""},
	{"empty name, labels", ptxHeader + ".visible .entry k(\n.param .u64 p,\n.param .u64 q\n)\n{\nB:\nA:\nld.param.u64 %rd1, [q];\n@!%p1 bra A;\nZ:\nY:\n}\n", ""},
}

// TestCanonicalTextHostileParams checks the digest's bytes against the
// oracle for parameter names that collide with the rest of a line.
func TestCanonicalTextHostileParams(t *testing.T) {
	for _, c := range hostileParamCases {
		t.Run(c.name, func(t *testing.T) {
			m, err := ptx.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			checkModule(t, m, c.rename)
		})
	}
	// A hand-built kernel whose only parameter has an empty name, so the
	// replacer inserts its placeholder between every byte of a line.
	k := &ptx.Kernel{
		Name:   "hand",
		Params: []ptx.Param{{Type: ".u64"}},
		Regs:   []ptx.RegDecl{{Type: ".b32", Prefix: "%r", Count: 2}},
		Body:   []ptx.Instruction{{Opcode: "mov.u32", Operands: []string{"%r1", "0"}}},
	}
	if err := k.AddLabel("DONE"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "ret"})
	checkAgainstOracle(t, k)
}

// TestDigestAllocs bounds the allocations of digesting one generated
// kernel. The rendered text lives in a pooled buffer, so the count does
// not grow with the kernel. The kernel's parameter names are longer than
// the 32 bytes a []byte conversion can keep on the stack.
func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), ptxgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Module.Kernel("fusion_10_activation_relu")
	if k == nil {
		t.Fatal("alexnet has no kernel fusion_10_activation_relu")
	}
	allocs := testing.AllocsPerRun(100, func() { analysiscache.NewDigest(k) })
	t.Logf("NewDigest(%s): %.0f allocs, %d params", k.Name, allocs, len(k.Params))
	if limit := float64(digestAllocLimit); allocs > limit {
		t.Fatalf("NewDigest(%s) = %.0f allocs, want <= %.0f", k.Name, allocs, limit)
	}
}

// FuzzCanonicalText checks the digest's canonical text, fingerprint and
// keys against the line-replacer oracle on arbitrary accepted PTX, with
// the first parameter of each kernel also renamed to an arbitrary name.
func FuzzCanonicalText(f *testing.F) {
	for _, c := range hostileParamCases {
		f.Add(c.src, c.rename)
	}
	for _, src := range []string{
		// Fragments of FuzzParse's corpus.
		ptxHeader + ".visible .entry fusion_135(\n.param .u64 fusion_135_param_0\n)\n{\n" +
			".reg .pred %p<14>;\n.reg .b32 %r<20>;\n.reg .b64 %rd<12>;\n" +
			"mov.u32 %r13, %ctaid.x;\nmov.u32 %r14, %tid.x;\nshl.b32 %r15, %r13, 10;\n" +
			"setp.lt.u32 %p1, %r15, 718296;\n@%p1 bra LBB0_2;\nbra.uni LBB0_1;\n" +
			"LBB0_2:\nld.param.u64 %rd10, [fusion_135_param_0];\nLBB0_1:\nret;\n}\n",
		ptxHeader + ".visible .entry k(\n.param .u64 k_param_0\n)\n{\nmov.u32 %r1, 0;\nLOOP:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra LOOP;\nEXIT:\nret;\n}\n",
		ptxHeader + ".visible .entry k(\n.param .u64 p0\n)\n{\nld.param.u64 %rd1, [p0];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n}\n",
		ptxHeader +
			".visible .entry fusion_0_conv(\n.param .u64 fusion_0_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_0_conv_param_0];\nret;\n}\n" +
			".visible .entry fusion_7_conv(\n.param .u64 fusion_7_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_7_conv_param_0];\nret;\n}\n",
		".visible .entry (\n)\n{\n}\n",
		"a:b:c:;",
	} {
		f.Add(src, "p")
	}
	// Two generated zoo kernels: a convolution's loop nest and a
	// depthwise convolution's.
	for _, z := range []struct{ model, kernel string }{
		{"alexnet", "fusion_1_conv2d"},
		{"mobilenetv2", "fusion_4_depthwise_conv2d"},
	} {
		prog, err := ptxgen.Compile(zoo.MustBuild(z.model), ptxgen.Options{})
		if err != nil {
			f.Fatal(err)
		}
		m := prog.Module
		k := m.Kernel(z.kernel)
		if k == nil {
			f.Fatalf("%s has no kernel %s", z.model, z.kernel)
		}
		f.Add(ptx.Print(&ptx.Module{Version: m.Version, Target: m.Target, AddressSize: m.AddressSize, Kernels: []*ptx.Kernel{k}}), "ld")
	}
	f.Fuzz(func(t *testing.T, src, name string) {
		if m, err := ptx.Parse(src); err == nil {
			checkModule(t, m, name)
		}
	})
}
