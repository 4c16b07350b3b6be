package absint

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
)

// seedHeader starts each entry of testdata/seeds.txt: a line "-- what
// the seed covers --" followed by the seed's exact bytes.
var seedHeader = regexp.MustCompile(`(?m)^-- .* --\n`)

// fuzzSeeds loads the seed corpus from testdata/seeds.txt: whole PTX
// modules (the internal/ptx FuzzParse corpus format) covering the
// shapes the abstract interpreter cares about — affine tid indexing,
// constant and divergent branches, widened loops, shared-memory
// strides, predicated defs — and broken fragments that must die in the
// parser, never in the engine. The static-pass golden test in
// internal/ptxanalysis reads the same file.
func fuzzSeeds(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile("testdata/seeds.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return seedHeader.Split(string(data), -1)[1:]
}

// FuzzAbsint feeds arbitrary byte soup through parse → cfg → Analyze.
// Whatever the module, the engine must not panic, must converge (the
// iteration cap is a safety net the fuzzer should never reach), must
// keep its result shape consistent with the CFG, and must be fully
// deterministic run to run.
func FuzzAbsint(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.Parse(src)
		if err != nil {
			return
		}
		for _, k := range m.Kernels {
			g, err := cfg.Build(k)
			if err != nil {
				continue
			}
			r := Analyze(k, g)
			if !r.Converged {
				t.Fatalf("kernel %s: no fixpoint in %d iterations", k.Name, r.Iterations)
			}
			if cap := iterCap(len(g.Blocks)); r.Iterations > cap {
				t.Fatalf("kernel %s: %d iterations exceeds cap %d", k.Name, r.Iterations, cap)
			}
			if len(r.Entry) != len(g.Blocks) || len(r.Reached) != len(g.Blocks) || len(r.Branch) != len(g.Blocks) {
				t.Fatalf("kernel %s: result shape %d/%d/%d blocks, CFG has %d",
					k.Name, len(r.Entry), len(r.Reached), len(r.Branch), len(g.Blocks))
			}
			for bi := range g.Blocks {
				if r.Reached[bi] != (r.Entry[bi] != nil) {
					t.Fatalf("kernel %s block %d: Reached=%t but entry state nil=%t",
						k.Name, bi, r.Reached[bi], r.Entry[bi] == nil)
				}
				if r.Entry[bi] != nil && len(r.Entry[bi]) != len(r.Regs) {
					t.Fatalf("kernel %s block %d: %d slots, %d registers",
						k.Name, bi, len(r.Entry[bi]), len(r.Regs))
				}
			}
			if !r.Reached[0] && len(g.Blocks) > 0 {
				t.Fatalf("kernel %s: entry block unreached", k.Name)
			}
			for _, a := range r.Accesses {
				if a.Line < 0 || a.Line >= len(k.Body) || a.Block < 0 || a.Block >= len(g.Blocks) {
					t.Fatalf("kernel %s: access at line %d block %d out of range", k.Name, a.Line, a.Block)
				}
			}
			for _, uu := range r.UndefUses {
				if uu.Line < 0 || uu.Line >= len(k.Body) {
					t.Fatalf("kernel %s: undef use at line %d out of range", k.Name, uu.Line)
				}
			}
			// The fixpoint is deterministic: a second run from scratch
			// must reproduce every fact and every counter.
			r2 := Analyze(k, g)
			if r.Iterations != r2.Iterations || r.Widenings != r2.Widenings {
				t.Fatalf("kernel %s: rerun took %d/%d iterations/widenings, first run %d/%d",
					k.Name, r2.Iterations, r2.Widenings, r.Iterations, r.Widenings)
			}
			if !reflect.DeepEqual(r.Entry, r2.Entry) ||
				!reflect.DeepEqual(r.Branch, r2.Branch) ||
				!reflect.DeepEqual(r.Accesses, r2.Accesses) ||
				!reflect.DeepEqual(r.UndefUses, r2.UndefUses) {
				t.Fatalf("kernel %s: rerun produced different facts", k.Name)
			}
		}
	})
}

// virtualReg matches virtual register tokens (%r1, %rd12, %f3, %p1, ...)
// but not special registers (%tid.x, %ctaid.x, %ntid.x carry no digits
// before the dot) and not parameter brackets.
var virtualReg = regexp.MustCompile(`%[a-z]+[0-9]+`)

// renameRegs maps every virtual register in src to a fresh name drawn
// from a disjoint namespace, consistently across all occurrences.
func renameRegs(src string) (string, map[string]string) {
	rename := make(map[string]string)
	out := virtualReg.ReplaceAllStringFunc(src, func(reg string) string {
		if strings.Contains(reg, ".") {
			return reg
		}
		nr, ok := rename[reg]
		if !ok {
			nr = "%zz" + strconv.Itoa(900-len(rename))
			rename[reg] = nr
		}
		return nr
	})
	return out, rename
}

// TestRenameInvariance: the analysis depends on dataflow, not on
// register spelling. Renaming every virtual register consistently must
// leave branch classes, access classifications, undef-use lines, entry
// lattice values, and the iteration/widening counters untouched.
func TestRenameInvariance(t *testing.T) {
	for i, src := range fuzzSeeds(t) {
		m1, err := ptx.Parse(src)
		if err != nil {
			continue
		}
		renamed, rename := renameRegs(src)
		m2, err := ptx.Parse(renamed)
		if err != nil {
			t.Fatalf("seed %d: renamed module no longer parses: %v", i, err)
		}
		if len(m1.Kernels) != len(m2.Kernels) {
			t.Fatalf("seed %d: kernel count changed under rename", i)
		}
		for ki, k1 := range m1.Kernels {
			k2 := m2.Kernels[ki]
			g1, err1 := cfg.Build(k1)
			g2, err2 := cfg.Build(k2)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d kernel %s: cfg errors diverge under rename: %v vs %v", i, k1.Name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			r1 := Analyze(k1, g1)
			r2 := Analyze(k2, g2)
			if r1.Iterations != r2.Iterations || r1.Widenings != r2.Widenings || r1.Converged != r2.Converged {
				t.Errorf("seed %d kernel %s: counters changed under rename: %d/%d/%t vs %d/%d/%t",
					i, k1.Name, r1.Iterations, r1.Widenings, r1.Converged,
					r2.Iterations, r2.Widenings, r2.Converged)
			}
			if !reflect.DeepEqual(r1.Branch, r2.Branch) {
				t.Errorf("seed %d kernel %s: branch classes changed under rename:\n%v\n%v",
					i, k1.Name, r1.Branch, r2.Branch)
			}
			if !reflect.DeepEqual(r1.Accesses, r2.Accesses) {
				t.Errorf("seed %d kernel %s: access classes changed under rename:\n%v\n%v",
					i, k1.Name, r1.Accesses, r2.Accesses)
			}
			if !reflect.DeepEqual(r1.Reached, r2.Reached) {
				t.Errorf("seed %d kernel %s: reachability changed under rename", i, k1.Name)
			}
			if len(r1.UndefUses) != len(r2.UndefUses) {
				t.Errorf("seed %d kernel %s: undef uses %d vs %d under rename",
					i, k1.Name, len(r1.UndefUses), len(r2.UndefUses))
			} else {
				for j, uu := range r1.UndefUses {
					if r2.UndefUses[j].Line != uu.Line || r2.UndefUses[j].Reg != rename[uu.Reg] {
						t.Errorf("seed %d kernel %s: undef use %d is %v, renamed run has %v",
							i, k1.Name, j, uu, r2.UndefUses[j])
					}
				}
			}
			// Slot order is first textual appearance, which renaming
			// preserves — so the entry lattice must match slot for slot.
			if len(r1.Regs) != len(r2.Regs) {
				t.Fatalf("seed %d kernel %s: register count changed under rename", i, k1.Name)
			}
			for si, reg := range r1.Regs {
				if r2.Regs[si] != rename[reg] {
					t.Errorf("seed %d kernel %s: slot %d is %s, renamed run has %s (want %s)",
						i, k1.Name, si, reg, r2.Regs[si], rename[reg])
				}
			}
			if !reflect.DeepEqual(r1.Entry, r2.Entry) {
				t.Errorf("seed %d kernel %s: entry lattice values changed under rename", i, k1.Name)
			}
		}
	}
}
