package ptxanalysis_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"regexp"
	"strings"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/core"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// The static-pass golden pins everything that leaves
// AnalyzeKernelContext, per kernel: its summary fields as JSON
// (goldenRecord), the full diagnostics, and the attributes of the
// "absint" span (iterations, facts, widenings; the iteration count is
// also what the absint_iterations histogram observes). testdata/static_golden.txt
// holds one SHA-256 per group of kernels: each zoo model under the
// default configuration (kernels already seen in an earlier model are
// skipped), the FuzzAbsint seed corpus, and each hostile kernel below.
// On a mismatch the test prints the complete set of lines it computed.

// goldenRecord renders the fields of a KernelAnalysis that outlive the
// pass, except the CFG and loops (MaxLoopDepth summarises them). Its
// field order, JSON tags and constant version are those of the stored
// record older builds wrote, so testdata/static_golden.txt keeps its
// bytes.
type goldenRecord struct {
	Version      int                         `json:"version"`
	Kernel       string                      `json:"kernel"`
	Static       int                         `json:"static"`
	MaxLoopDepth int                         `json:"max_loop_depth"`
	Pressure     ptxanalysis.Pressure        `json:"pressure"`
	Mix          ptxanalysis.Mix             `json:"mix"`
	Blocks       []ptxanalysis.BlockFeatures `json:"blocks,omitempty"`
	Diags        []ptxanalysis.Diag          `json:"diags,omitempty"`
}

// hashKernel folds one kernel's analysis outcome into h.
func hashKernel(t *testing.T, h hash.Hash, k *ptx.Kernel) {
	t.Helper()
	tr := obs.NewTracer()
	a, err := ptxanalysis.AnalyzeKernelContext(obs.WithTracer(context.Background(), tr), k)
	if err != nil {
		fmt.Fprintf(h, "kernel %s: error %v\n", k.Name, err)
		return
	}
	rec, err := json.Marshal(goldenRecord{
		Version:      1,
		Kernel:       a.Kernel,
		Static:       a.Static,
		MaxLoopDepth: a.MaxLoopDepth,
		Pressure:     a.Pressure,
		Mix:          a.Mix,
		Blocks:       a.Blocks,
		Diags:        a.Diags,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "kernel %s\n%s\n", k.Name, rec)
	for _, d := range a.Diags {
		fmt.Fprintf(h, "%s\n", d)
	}
	// Span lines read "absint <duration> kernel=... iterations=...";
	// everything but the duration is pinned.
	sc := bufio.NewScanner(strings.NewReader(tr.Tree()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) > 1 {
			f[1] = "-"
		}
		fmt.Fprintf(h, "span %s\n", strings.Join(f, " "))
	}
}

// seedHeader starts each entry of the FuzzAbsint seed file.
var seedHeader = regexp.MustCompile(`(?m)^-- .* --\n`)

// hostileKernels are bodies whose operands the parser would never
// produce, or that mix register roles, where a decoded operand must
// mean exactly what the operand text means.
func hostileKernels() []*ptx.Kernel {
	in := func(pred, op string, ops ...string) ptx.Instruction {
		neg := strings.HasPrefix(pred, "!")
		return ptx.Instruction{Pred: strings.TrimPrefix(pred, "!"), PredNeg: neg, Opcode: op, Operands: ops}
	}
	kernel := func(name string, labels map[string]int, body ...ptx.Instruction) *ptx.Kernel {
		k := &ptx.Kernel{Name: name, Regs: []ptx.RegDecl{{Type: ".u64", Prefix: "%rd", Count: 8}}}
		for i, ins := range body {
			for l, at := range labels {
				if at == i {
					if err := k.AddLabel(l); err != nil {
						panic(err)
					}
				}
			}
			k.Append(ins)
		}
		return k
	}
	return []*ptx.Kernel{
		kernel("untrimmed", map[string]int{"L": 4},
			in("", "ld.param.u64", " %rd1", "[k_param_0]"),
			in("", "mov.u32", "%r1 ", " %tid.x "),
			in("", "mul.lo.s32", "%r2", " %r1", " 4 "),
			in("", "shl.b32", "%r3", "%r1 ", " 2"),
			in("", "add.s32", "%r4", " %r2 ", "%r3"),
			in("", "ld.global.f32", "%f1", " [%rd1+4] "),
			in("", "mad.lo.s32", "%r5", "%r4", " 8", " %r1"),
			in("", "setp.lt.s32", "%p1", " %r4", "%r4 "),
			in("", "setp.ge.s32", "%p2", "[%r4]", "%r4"),
			in("", "st.global.f32", " [%rd1] ", "%f1"),
			in("%p1", "bra", "L"),
			in("", "ret"),
		),
		kernel("tid_address", nil,
			in("", "ld.global.f32", "%f1", "[%tid.x]"),
			in("", "st.shared.f32", "[%tid.x+4]", "%f1"),
			in("", "ld.global.f32", "%f2", "[%tid.w]"),
			in("", "mov.u32", "%r1", "%tid.w"),
			in("", "mul.lo.s32", "%r2", "%r1", "4"),
			in("", "ld.global.f32", "%f3", "[%r2]"),
			in("", "ret"),
		),
		kernel("special_dest", nil,
			in("", "mov.u32", "%tid.x", "5"),
			in("", "add.s32", "%r1", "%tid.x", "1"),
			in("", "mov.u32", "%ctaid.x", "%tid.x"),
			in("", "setp.eq.s32", "%p1", "%tid.x", "%tid.x"),
			in("", "selp.b32", "%r2", "%r1", "%ctaid.x", "%p1"),
			in("", "st.global.u32", "[%r2]", "%r1"),
			in("", "ret"),
		),
		kernel("bad_float", nil,
			in("", "mov.u32", "%r1", "0fZZZZ"),
			in("", "mov.u32", "%r2", "0F3F800000"),
			in("", "mov.b32", "%r3", "0f"),
			in("", "mul.lo.s32", "%r4", "%r1", "0f00000004"),
			in("", "add.s32", "%r5", "%r2", "banana"),
			in("", "setp.lt.s32", "%p1", "%r5", "0f7FFFFFFFFFFFFFFFF"),
			in("", "st.global.u32", "[%r4]", "%r5"),
			in("", "ret"),
		),
		kernel("empty_dest", nil,
			in("", "add.s32", "", "%r1", "2"),
			in("", "mov.u32", ""),
			in("", "mov.u32"),
			in("", "st.global.u32", "", "%r1"),
			in("", "add.s32", "%r2", "", "%r1"),
			in("", "ret"),
		),
		kernel("guard_is_dest", map[string]int{"L": 1, "OUT": 6},
			in("", "mov.u32", "%r1", "%tid.x"),
			in("%p1", "setp.lt.s32", "%p1", "%r1", "4"),
			in("!%p1", "add.s32", "%r1", "%r1", "1"),
			in("%r1", "mov.u32", "%r1", "%r1"),
			in("%p1", "bra", "L"),
			in("%p1", "bar.sync", "0"),
			in("", "ret"),
		),
		kernel("bracket_dest", map[string]int{"L": 1},
			in("", "mov.u32", "%r1", "0"),
			in("", "ld.global.f32", "[%rd9]", "%f1"),
			in("", "ld.global.f32", "[%rd1+8]", "[%rd2]"),
			in("", "add.s32", "[%rd3]", "%r1", "1"),
			in("", "add.s32", "%r1", "%r1", "1"),
			in("", "setp.lt.s32", "%p1", "%r1", "16"),
			in("%p1", "bra", "L"),
			in("", "ret"),
		),
	}
}

func TestStaticPassGolden(t *testing.T) {
	var got []string
	line := func(name string, h hash.Hash) {
		got = append(got, name+" "+hex.EncodeToString(h.Sum(nil)))
	}

	seen := make(map[string]bool)
	for _, name := range zoo.Names() {
		prog, err := ptxgen.Compile(zoo.MustBuild(name), core.DefaultConfig().PTX)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, k := range prog.Module.Kernels {
			d := analysiscache.Fingerprint(k)
			if seen[d] {
				continue
			}
			seen[d] = true
			hashKernel(t, h, k)
		}
		line("zoo/"+name, h)
	}

	data, err := os.ReadFile("absint/testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, src := range seedHeader.Split(string(data), -1)[1:] {
		m, err := ptx.Parse(src)
		if err != nil {
			fmt.Fprintf(h, "seed %d: parse error %v\n", i, err)
			continue
		}
		for _, k := range m.Kernels {
			hashKernel(t, h, k)
		}
	}
	line("absint-seeds", h)

	for _, k := range hostileKernels() {
		h := sha256.New()
		hashKernel(t, h, k)
		line("hostile/"+k.Name, h)
	}

	wantData, err := os.ReadFile("testdata/static_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(wantData)), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		for i := range max(len(got), len(want)) {
			g, w := "", ""
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("golden line %d: got %q, want %q", i, g, w)
			}
		}
		t.Fatalf("static pass differs from testdata/static_golden.txt; computed:\n%s", strings.Join(got, "\n"))
	}
}
