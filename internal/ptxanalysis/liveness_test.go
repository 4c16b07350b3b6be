package ptxanalysis

import (
	"reflect"
	"slices"
	"testing"

	"cnnperf/internal/ptx/cfg"
	"cnnperf/internal/ptxanalysis/absint"
)

// Fixture 1 — straight-line kernel, hand-computed liveness walk:
//
//	i0 ld.param.u64  %rd1, [k_param_0]   live before: {}
//	i1 cvta          %rd2, %rd1          live before: {%rd1}
//	i2 mov           %r1, %tid.x         live before: {%rd2}
//	i3 add           %r2, %r1, 1         live before: {%rd2,%r1}
//	i4 st.global     [%rd2], %r2         live before: {%rd2,%r2}
//	i5 ret                               live before: {}
//
// Max pressure: 2 total (one .b64 + one .b32 at i3/i4).
const straightBody = `
	ld.param.u64 %rd1, [k_param_0];
	cvta.to.global.u64 %rd2, %rd1;
	mov.u32 %r1, %tid.x;
	add.s32 %r2, %r1, 1;
	st.global.u32 [%rd2], %r2;
	ret;
`

func TestLivenessStraightLine(t *testing.T) {
	k := parseKernel(t, straightBody)
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lv := ComputeLiveness(k, g)
	if len(lv.UseBeforeDef) != 0 {
		t.Errorf("use-before-def = %v, want none", lv.UseBeforeDef)
	}
	if len(lv.DeadDefs) != 0 {
		t.Errorf("dead defs = %v, want none", lv.DeadDefs)
	}
	if lv.LiveIn[0].Len() != 0 || lv.LiveOut[0].Len() != 0 {
		t.Errorf("single-block live sets: in=%v out=%v", lv.Names(lv.LiveIn[0]), lv.Names(lv.LiveOut[0]))
	}
	p := ComputePressure(k, g, lv)
	if p.Total != 2 {
		t.Errorf("total pressure = %d, want 2", p.Total)
	}
	if p.ByType[".b64"] != 1 || p.ByType[".b32"] != 1 {
		t.Errorf("pressure by type = %v, want .b64:1 .b32:1", p.ByType)
	}
}

// Fixture 2 — counted loop, hand-computed:
//
//	b0: i0 mov %r1, 0
//	b1: i1 add %r1, %r1, 1 / i2 setp %p1, %r1, 16 / i3 @%p1 bra
//	b2: i4 ret
//
// LiveIn(b1) = {%r1}; LiveOut(b0) = {%r1}; at the bra point both %r1
// and %p1 are live → max pressure 2 (.b32 1, .pred 1).
func TestLivenessLoop(t *testing.T) {
	k := parseKernel(t, loopBody)
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lv := ComputeLiveness(k, g)
	if len(lv.UseBeforeDef) != 0 {
		t.Errorf("use-before-def = %v", lv.UseBeforeDef)
	}
	if got := lv.Names(lv.LiveIn[1]); !reflect.DeepEqual(got, []string{"%r1"}) {
		t.Errorf("LiveIn(loop) = %v, want {%%r1}", got)
	}
	if got := lv.Names(lv.LiveOut[0]); !reflect.DeepEqual(got, []string{"%r1"}) {
		t.Errorf("LiveOut(entry) = %v, want {%%r1}", got)
	}
	if len(lv.DeadDefs) != 0 {
		t.Errorf("dead defs = %v", lv.DeadDefs)
	}
	p := ComputePressure(k, g, lv)
	if p.Total != 2 || p.ByType[".b32"] != 1 || p.ByType[".pred"] != 1 {
		t.Errorf("pressure = %+v, want total 2, .b32 1, .pred 1", p)
	}
}

// Fixture 3 — diamond with disjoint arm temporaries, hand-computed:
// both arms define %r2 which the join consumes, so %r2 is live across
// the join edges but the arm-local pressure never exceeds 3 total
// (%r1 + %r2 + address register is not yet live: the store address
// %rd1 comes from a parameter load in this variant).
const diamondPressureBody = `
	ld.param.u64 %rd1, [k_param_0];
	mov.u32 %r1, %tid.x;
	setp.lt.s32 %p1, %r1, 8;
	@%p1 bra THEN;
	mov.u32 %r2, 1;
	bra.uni JOIN;
THEN:
	mov.u32 %r2, 2;
JOIN:
	add.s32 %r3, %r2, %r1;
	st.global.u32 [%rd1], %r3;
	ret;
`

func TestLivenessDiamond(t *testing.T) {
	k := parseKernel(t, diamondPressureBody)
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	lv := ComputeLiveness(k, g)
	if len(lv.UseBeforeDef) != 0 {
		t.Errorf("use-before-def = %v", lv.UseBeforeDef)
	}
	// %r2 is live out of both arms, into the join.
	if !slices.Contains(lv.Names(lv.LiveOut[1]), "%r2") || !slices.Contains(lv.Names(lv.LiveOut[2]), "%r2") ||
		!slices.Contains(lv.Names(lv.LiveIn[3]), "%r2") {
		t.Error("%r2 must be live out of both arms and into the join")
	}
	// Neither arm's %r2 definition is dead: the join reads it.
	if len(lv.DeadDefs) != 0 {
		t.Errorf("dead defs = %v", lv.DeadDefs)
	}
	// Hand-computed maximum: before the conditional branch (i3) the live
	// set is {%rd1, %r1, %p1} plus nothing else → with the arms' {%rd1,
	// %r1, %r2} the peak is 3 total.
	p := ComputePressure(k, g, lv)
	if p.Total != 3 {
		t.Errorf("total pressure = %d, want 3", p.Total)
	}
	if p.ByType[".b64"] != 1 || p.ByType[".b32"] != 2 || p.ByType[".pred"] != 1 {
		t.Errorf("pressure by type = %v, want .b64:1 .b32:2 .pred:1", p.ByType)
	}
}

// Predicated definitions are may-defs: when the guard is false the old
// value flows through. The two regression tests below pin the corrected
// kill rule from both directions.

// TestPredicatedDefNoFalseDeadStore: an unconditional store whose value
// a later predicated definition may overwrite is still observable on
// the guard-false path — it must not be reported dead (PTXA002 FP).
func TestPredicatedDefNoFalseDeadStore(t *testing.T) {
	k := parseKernel(t, `
	mov.u32 %r1, 1;
	mov.u32 %r2, %tid.x;
	setp.lt.s32 %p1, %r2, 4;
	@%p1 mov.u32 %r1, 2;
	st.global.u32 [%r2], %r1;
	ret;
`)
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lv := ComputeLiveness(k, g)
	if len(lv.DeadDefs) != 0 {
		t.Errorf("dead defs = %v, want none: the may-def at i3 does not kill i0", lv.DeadDefs)
	}
	a, err := AnalyzeKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Diags {
		if d.Code == CodeDeadStore {
			t.Errorf("false-positive dead store: %s", d)
		}
	}
}

// TestPredicatedDefKeepsUseBeforeDef: a register defined only under a
// predicate may still be read undefined on the guard-false path — the
// may-def must not mask the use-before-def (PTXA001 FN).
func TestPredicatedDefKeepsUseBeforeDef(t *testing.T) {
	k := parseKernel(t, `
	mov.u32 %r2, %tid.x;
	setp.lt.s32 %p1, %r2, 4;
	@%p1 mov.u32 %r1, 2;
	add.s32 %r3, %r1, 1;
	st.global.u32 [%r2], %r3;
	ret;
`)
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lv := ComputeLiveness(k, g)
	if at, ok := lv.UseBeforeDef["%r1"]; !ok || at != 3 {
		t.Errorf("UseBeforeDef[%%r1] = %d,%t, want 3,true: the may-def must not mask it", at, ok)
	}
	diags := LintKernel(k)
	found := false
	for _, d := range diags {
		if d.Code == CodeUseBeforeDef && d.Line == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("PTXA001 missing for the guard-false path, got %v", diags)
	}
	// The pressure walk mirrors the same kill rule: %r1 stays live (and
	// counted) across its may-def, so at i3 {%r2,%p1,%r1} are live.
	p := ComputePressure(k, g, lv)
	if p.ByType[".b32"] < 2 {
		t.Errorf(".b32 pressure = %d, want >= 2 (may-def keeps %%r1 live)", p.ByType[".b32"])
	}
}

// TestUndefUseAudit differentially audits the liveness-based PTXA001
// against the abstract interpreter's flow-sensitive undef tracking:
// every register the value analysis sees read while possibly undefined
// must also be flagged by the (more conservative, flow-insensitive)
// liveness dataflow.
func TestUndefUseAudit(t *testing.T) {
	bodies := []string{
		// Plain use-before-def.
		"\tadd.s32 %r1, %r2, 1;\n\tst.global.u32 [%r1], %r1;\n\tret;\n",
		// May-def only.
		"\tmov.u32 %r2, %tid.x;\n\tsetp.lt.s32 %p1, %r2, 4;\n\t@%p1 mov.u32 %r1, 2;\n\tadd.s32 %r3, %r1, 1;\n\tst.global.u32 [%r2], %r3;\n\tret;\n",
		// Defined on every path: clean.
		diamondBody,
	}
	for i, body := range bodies {
		k := parseKernel(t, body)
		g, err := cfg.Build(k)
		if err != nil {
			t.Fatalf("kernel %d cfg: %v", i, err)
		}
		lv := ComputeLiveness(k, g)
		abs := absint.Analyze(k, g)
		for _, uu := range abs.UndefUses {
			if _, ok := lv.UseBeforeDef[uu.Reg]; !ok {
				t.Errorf("kernel %d: absint sees %s read undefined at line %d but liveness PTXA001 misses it",
					i, uu.Reg, uu.Line)
			}
		}
	}
}

// TestUseBeforeDefAttributesEveryReadRegister: one instruction reading
// two undefined registers is the first reader of both, so PTXA001
// anchors both findings to it.
func TestUseBeforeDefAttributesEveryReadRegister(t *testing.T) {
	k := parseKernel(t, "\tadd.s32 %r3, %r1, %r2;\n\tst.global.u32 [%r3], %r3;\n\tret;\n")
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lv := ComputeLiveness(k, g)
	if want := map[string]int{"%r1": 0, "%r2": 0}; !reflect.DeepEqual(lv.UseBeforeDef, want) {
		t.Errorf("UseBeforeDef = %v, want %v", lv.UseBeforeDef, want)
	}
	var got []string
	for _, d := range LintKernel(k) {
		if d.Code == CodeUseBeforeDef {
			got = append(got, d.String())
		}
	}
	want := []string{
		"k:0: error PTXA001: register %r1 may be read before it is written",
		"k:0: error PTXA001: register %r2 may be read before it is written",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PTXA001 findings = %q, want %q", got, want)
	}
}
