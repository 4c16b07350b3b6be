package absint

import (
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
)

func parseKernel(t testing.TB, body string) (*ptx.Kernel, *cfg.Graph) {
	t.Helper()
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry k(\n.param .u64 p0\n)\n{\n" + body + "}\n"
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(m.Kernels) != 1 {
		t.Fatalf("want 1 kernel, got %d", len(m.Kernels))
	}
	k := m.Kernels[0]
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return k, g
}

func analyze(t testing.TB, body string) *Result {
	t.Helper()
	k, g := parseKernel(t, body)
	r := Analyze(k, g)
	if !r.Converged {
		t.Fatalf("analysis did not converge in %d iterations", r.Iterations)
	}
	return r
}

func TestIntervalArith(t *testing.T) {
	if got := Const(3).Add(Const(4)); !got.Eq(Const(7)) {
		t.Errorf("3+4 = %v", got)
	}
	if got := (Interval{1, PosInf}).Add(Const(1)); got.Lo != 2 || got.Hi != PosInf {
		t.Errorf("[1,+inf]+1 = %v", got)
	}
	if got := Const(1 << 62).Mul(Const(4)); got.Hi != PosInf {
		t.Errorf("overflowing mul must saturate, got %v", got)
	}
	if got := (Interval{-2, 3}).Mul(Const(-4)); got.Lo != -12 || got.Hi != 8 {
		t.Errorf("[-2,3]*-4 = %v", got)
	}
	w := Const(0).Widen(Interval{0, 5})
	if w.Lo != 0 || w.Hi != PosInf {
		t.Errorf("widen grew-above = %v", w)
	}
	if got := Top().Sub(Const(1)); !got.IsTop() {
		t.Errorf("top-1 = %v", got)
	}
}

func TestTidAffineIndex(t *testing.T) {
	// The generated global-index idiom: idx = ctaid*ntid + tid, then a
	// byte address idx*4.
	r := analyze(t, `
mov.u32 %r1, %ctaid.x;
mov.u32 %r2, %ntid.x;
mad.lo.s32 %r3, %r1, %r2, %tid.x;
mul.wide.s32 %rd1, %r3, 4;
ld.global.f32 %f1, [%rd1];
ret;
`)
	if len(r.Accesses) != 1 {
		t.Fatalf("want 1 access, got %d", len(r.Accesses))
	}
	a := r.Accesses[0]
	if !a.StrideKnown || a.StrideBytes != 4 {
		t.Fatalf("stride = %+v, want known 4", a)
	}
	if a.Class != CoalCoalesced {
		t.Fatalf("class = %v, want coalesced", a.Class)
	}
	if a.Space != SpaceGlobal || a.Store {
		t.Fatalf("access misclassified: %+v", a)
	}
}

func TestStridedAndSharedConflict(t *testing.T) {
	r := analyze(t, `
mov.u32 %r1, %tid.x;
mul.wide.s32 %rd1, %r1, 64;
ld.global.f32 %f1, [%rd1];
mul.wide.s32 %rd2, %r1, 8;
st.shared.f32 [%rd2], %f1;
ret;
`)
	if len(r.Accesses) != 2 {
		t.Fatalf("want 2 accesses, got %d", len(r.Accesses))
	}
	g, s := r.Accesses[0], r.Accesses[1]
	if g.Class != CoalStrided || g.StrideBytes != 64 {
		t.Fatalf("global access = %+v, want strided 64", g)
	}
	if s.Space != SpaceShared || !s.Store || s.ConflictWays != 2 {
		t.Fatalf("shared access = %+v, want 2-way conflict", s)
	}
}

func TestUniformAddressBroadcast(t *testing.T) {
	r := analyze(t, `
ld.param.u64 %rd1, [p0];
ld.global.f32 %f1, [%rd1];
ret;
`)
	if len(r.Accesses) != 1 || r.Accesses[0].Class != CoalUniform || r.Accesses[0].StrideBytes != 0 {
		t.Fatalf("accesses = %+v, want one uniform", r.Accesses)
	}
}

func TestBranchClasses(t *testing.T) {
	// Divergent: the generated bounds-check guards on a tid-dependent
	// comparison. Uniform: a comparison of two parameters.
	r := analyze(t, `
mov.u32 %r1, %tid.x;
setp.ge.s32 %p1, %r1, 100;
@%p1 bra EXIT;
ld.param.u64 %rd1, [p0];
setp.lt.s32 %p2, %rd1, 5;
@%p2 bra EXIT;
mov.u32 %r2, 0;
EXIT:
ret;
`)
	var classes []BranchClass
	for _, br := range r.Branch {
		if br.Class != BranchNone {
			classes = append(classes, br.Class)
		}
	}
	if len(classes) != 2 || classes[0] != BranchDivergent || classes[1] != BranchUniform {
		t.Fatalf("branch classes = %v, want [divergent uniform]", classes)
	}
}

func TestConstantBranchPrunesBlock(t *testing.T) {
	r := analyze(t, `
mov.u32 %r1, 5;
setp.lt.s32 %p1, %r1, 3;
@%p1 bra DEAD;
bra.uni EXIT;
DEAD:
mov.u32 %r2, 1;
EXIT:
ret;
`)
	var constBranches int
	for _, br := range r.Branch {
		if br.Const {
			constBranches++
			if br.Taken {
				t.Fatalf("5<3 guard must be not-taken, got %+v", br)
			}
		}
	}
	if constBranches != 1 {
		t.Fatalf("const branches = %d, want 1", constBranches)
	}
	unreached := 0
	for bi, ok := range r.Reached {
		if !ok {
			unreached++
			if want := "%r2"; r.Entry[bi] != nil {
				t.Fatalf("unreached block %d (%s def) has entry state", bi, want)
			}
		}
	}
	if unreached != 1 {
		t.Fatalf("unreached blocks = %d, want exactly the pruned one", unreached)
	}
}

func TestLoopWideningConverges(t *testing.T) {
	r := analyze(t, `
mov.u32 %r1, 0;
LOOP:
add.s32 %r1, %r1, 1;
setp.lt.s32 %p1, %r1, 363;
@%p1 bra LOOP;
ret;
`)
	if r.Widenings == 0 {
		t.Fatalf("loop analysis performed no widening (iterations=%d)", r.Iterations)
	}
	// The loop-header entry value of the counter must cover every
	// concrete iterate yet stay uniform (the counter is not
	// thread-dependent), and the exit test must not look constant.
	var headerVal Value
	found := false
	for bi := range r.Reached {
		if v, ok := r.EntryValue(bi, "%r1"); ok && r.Branch[bi].Class != BranchNone {
			headerVal, found = v, true
		}
	}
	if !found {
		t.Fatal("no loop block with a classified branch")
	}
	if !headerVal.Uniform() {
		t.Fatalf("loop counter became thread-dependent: %+v", headerVal)
	}
	if !headerVal.B.Contains(0) || !headerVal.B.Contains(362) {
		t.Fatalf("loop counter interval %v does not cover the iterates", headerVal.B)
	}
	for _, br := range r.Branch {
		if br.Const {
			t.Fatalf("loop exit test must not be constant after widening: %+v", br)
		}
	}
}

func TestUndefUseDetected(t *testing.T) {
	r := analyze(t, `
add.s32 %r1, %r9, 1;
ret;
`)
	if len(r.UndefUses) != 1 || r.UndefUses[0].Reg != "%r9" || r.UndefUses[0].Line != 0 {
		t.Fatalf("undef uses = %+v, want [%%r9 at 0]", r.UndefUses)
	}
}

func TestPredicatedDefStaysMaybeUndef(t *testing.T) {
	// A definition under a guard may not execute; a later read is still
	// a possibly-undefined use.
	r := analyze(t, `
mov.u32 %r1, %tid.x;
setp.lt.s32 %p1, %r1, 4;
@%p1 mov.u32 %r2, 7;
add.s32 %r3, %r2, 1;
ret;
`)
	found := false
	for _, u := range r.UndefUses {
		if u.Reg == "%r2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("predicated-only def must leave a maybe-undef use, got %+v", r.UndefUses)
	}
}

func TestSelpTaint(t *testing.T) {
	// selp on a thread-dependent predicate of two distinct constants is
	// thread-dependent even though both arms are uniform.
	r := analyze(t, `
mov.u32 %r1, %tid.x;
setp.lt.s32 %p1, %r1, 4;
selp.b32 %r2, 1, 2, %p1;
mul.wide.s32 %rd1, %r2, 4;
ld.global.f32 %f1, [%rd1];
ret;
`)
	if len(r.Accesses) != 1 || r.Accesses[0].Class != CoalUnknown {
		t.Fatalf("accesses = %+v, want one unknown-stride load", r.Accesses)
	}
}

func TestIterationsBounded(t *testing.T) {
	k, g := parseKernel(t, `
mov.u32 %r1, 0;
A:
add.s32 %r1, %r1, 1;
setp.lt.s32 %p1, %r1, 10;
@%p1 bra A;
mov.u32 %r2, 0;
B:
add.s32 %r2, %r2, 3;
add.s32 %r1, %r1, %r2;
setp.lt.s32 %p2, %r2, 100;
@%p2 bra B;
ret;
`)
	r := Analyze(k, g)
	if !r.Converged {
		t.Fatal("nested-sequence loops did not converge")
	}
	if cap := iterCap(len(g.Blocks)); r.Iterations >= cap {
		t.Fatalf("iterations %d at cap %d", r.Iterations, cap)
	}
}

// TestConstBranchToTrailingLabel: a label after the last instruction
// has no block. A constant guard branching to it must be classified,
// not index past the CFG; either direction's only edge is the
// fallthrough, which stays feasible.
func TestConstBranchToTrailingLabel(t *testing.T) {
	for _, c := range []struct {
		guard string
		taken bool
	}{{"1", true}, {"2", false}} {
		r := analyze(t, "\tmov.u32 %r1, 1;\n\tsetp.eq.s32 %p1, %r1, "+c.guard+";\n\t@%p1 bra END;\n\tret;\nEND:\n")
		if br := r.Branch[0]; !br.Const || br.Taken != c.taken {
			t.Errorf("guard %%r1 == %s: branch %+v, want constant, taken=%t", c.guard, br, c.taken)
		}
		if !r.Reached[1] {
			t.Errorf("guard %%r1 == %s: fallthrough block unreached", c.guard)
		}
	}
}
