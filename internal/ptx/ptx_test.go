package ptx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestClassOf(t *testing.T) {
	cases := map[string]Class{
		"add.s32":            ClassIntALU,
		"add.f32":            ClassFP32,
		"mul.wide.s32":       ClassIntALU,
		"mul.f32":            ClassFP32,
		"fma.rn.f32":         ClassFMA,
		"div.approx.f32":     ClassSFU,
		"div.s32":            ClassIntALU,
		"rcp.approx.f32":     ClassSFU,
		"ex2.approx.f32":     ClassSFU,
		"ld.global.f32":      ClassLoad,
		"ld.param.u64":       ClassLoad,
		"st.global.f32":      ClassStore,
		"setp.lt.u32":        ClassCompare,
		"setp.ge.s32":        ClassCompare,
		"mov.u32":            ClassMove,
		"selp.f32":           ClassMove,
		"cvt.rn.f32.s32":     ClassConvert,
		"cvta.to.global.u64": ClassConvert,
		"bra":                ClassBranch,
		"bra.uni":            ClassBranch,
		"bar.sync":           ClassSync,
		"ret":                ClassControl,
		"shl.b32":            ClassIntALU,
		"or.b32":             ClassIntALU,
		"max.f32":            ClassFP32,
		"frobnicate.x":       ClassUnknown,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", op, got, want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !IsBranch("bra") || IsBranch("add.s32") {
		t.Error("IsBranch wrong")
	}
	if !IsBarrier("bar.sync") || IsBarrier("ret") {
		t.Error("IsBarrier wrong")
	}
	if !IsExit("ret") || IsExit("bra") {
		t.Error("IsExit wrong")
	}
	if !HasDest("add.s32") || HasDest("st.global.f32") || HasDest("bra") || HasDest("ret") {
		t.Error("HasDest wrong")
	}
	// Over the whole root vocabulary, with the suffixes that change a
	// class, the predicates and Decode agree with ClassOf.
	for root := range rootClass {
		for _, op := range []string{root, root + ".s32", root + ".f32", root + ".shared.u32", root + ".approx.f64"} {
			c := ClassOf(op)
			d := Decode(op)
			if d.Class != c {
				t.Errorf("Decode(%q).Class = %v, ClassOf = %v", op, d.Class, c)
			}
			if IsBranch(op) != (c == ClassBranch) || IsExit(op) != (c == ClassControl) ||
				IsBarrier(op) != (c == ClassSync) || HasDest(op) != hasDestClass(c) {
				t.Errorf("%q: predicates disagree with class %v", op, c)
			}
		}
	}
	if IsBranch("frobnicate") || IsExit("frobnicate") || IsBarrier("frobnicate") || HasDest("frobnicate") {
		t.Error("unknown opcode satisfies a class predicate")
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes {
		s := c.String()
		if s == "unknown" || seen[s] {
			t.Errorf("class %d has bad or duplicate string %q", c, s)
		}
		seen[s] = true
	}
}

func TestInstructionAccessors(t *testing.T) {
	add := Instruction{Opcode: "add.s32", Operands: []string{"%r1", "%r2", "%r3"}}
	if add.Dest() != "%r1" {
		t.Errorf("dest = %q", add.Dest())
	}
	if got := add.Sources(); len(got) != 2 || got[0] != "%r2" {
		t.Errorf("sources = %v", got)
	}
	st := Instruction{Opcode: "st.global.f32", Operands: []string{"[%rd1]", "%f1"}}
	if st.Dest() != "" {
		t.Error("store has no dest register")
	}
	if got := st.Sources(); len(got) != 2 {
		t.Errorf("store sources = %v", got)
	}
	pred := Instruction{Pred: "%p1", PredNeg: true, Opcode: "bra", Operands: []string{"L1"}}
	if s := pred.String(); s != "@!%p1 bra L1;" {
		t.Errorf("String = %q", s)
	}
}

func buildLoopKernel(t *testing.T) *Kernel {
	t.Helper()
	k := &Kernel{Name: "loop_test"}
	k.Params = []Param{{Name: "loop_test_param_0", Type: ".u64"}}
	k.Regs = []RegDecl{
		{Type: ".pred", Prefix: "%p", Count: 2},
		{Type: ".b32", Prefix: "%r", Count: 8},
	}
	k.Append(Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "0"}})
	if err := k.AddLabel("$L__BB0_1"); err != nil {
		t.Fatal(err)
	}
	k.Append(Instruction{Opcode: "add.s32", Operands: []string{"%r1", "%r1", "1"}})
	k.Append(Instruction{Opcode: "setp.lt.s32", Operands: []string{"%p1", "%r1", "16"}})
	k.Append(Instruction{Pred: "%p1", Opcode: "bra", Operands: []string{"$L__BB0_1"}})
	k.Append(Instruction{Opcode: "ret"})
	return k
}

func TestKernelLabelsAndValidate(t *testing.T) {
	k := buildLoopKernel(t)
	if err := k.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	idx, err := k.Target("$L__BB0_1")
	if err != nil || idx != 1 {
		t.Errorf("target = %d, %v", idx, err)
	}
	if _, err := k.Target("missing"); err == nil {
		t.Error("missing label should error")
	}
	if err := k.AddLabel("$L__BB0_1"); err == nil {
		t.Error("duplicate label should error")
	}
	h := k.StaticHistogram()
	if h[ClassIntALU] != 1 || h[ClassBranch] != 1 || h[ClassCompare] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestKernelValidateCatchesBadBranch(t *testing.T) {
	k := &Kernel{Name: "bad"}
	k.Append(Instruction{Opcode: "bra", Operands: []string{"nowhere"}})
	if err := k.Validate(); err == nil {
		t.Error("branch to undefined label should fail validation")
	}
	k2 := &Kernel{Name: "bad2"}
	k2.Append(Instruction{Opcode: "frob.u32", Operands: []string{"%r1"}})
	if err := k2.Validate(); err == nil {
		t.Error("unknown opcode should fail validation")
	}

	// Branch arity applies to every bra variant, not just the bare forms.
	k3 := &Kernel{Name: "bad3"}
	k3.Append(Instruction{Opcode: "bra.uni"})
	if err := k3.Validate(); err == nil {
		t.Error("bra.uni without operands should fail validation")
	}

	// A label pointing outside the body is structurally broken.
	k4 := &Kernel{Name: "bad4"}
	k4.Append(Instruction{Opcode: "ret"})
	k4.Labels = map[string]int{"WILD": 7}
	if err := k4.Validate(); err == nil {
		t.Error("out-of-range label index should fail validation")
	}

	// AddLabel refuses duplicates within one kernel.
	k5 := &Kernel{Name: "k5"}
	if err := k5.AddLabel("L"); err != nil {
		t.Fatalf("first label: %v", err)
	}
	k5.Append(Instruction{Opcode: "ret"})
	if err := k5.AddLabel("L"); err == nil {
		t.Error("duplicate label must be rejected")
	}
	if err := k5.Validate(); err != nil {
		t.Errorf("kernel left valid after rejected duplicate: %v", err)
	}
}

func TestModuleValidateRejectsCrossKernelBranch(t *testing.T) {
	// Kernel b branches to a label that exists only in kernel a: labels
	// are function-scoped, so the module must not validate.
	a := &Kernel{Name: "a"}
	if err := a.AddLabel("DONE"); err != nil {
		t.Fatal(err)
	}
	a.Append(Instruction{Opcode: "ret"})
	b := &Kernel{Name: "b"}
	b.Append(Instruction{Opcode: "bra", Operands: []string{"DONE"}})
	b.Append(Instruction{Opcode: "ret"})
	m := &Module{Version: "6.0", Target: "sm_61", AddressSize: 64, Kernels: []*Kernel{a, b}}
	err := m.Validate()
	if err == nil {
		t.Fatal("cross-kernel branch target should fail module validation")
	}
	if !strings.Contains(err.Error(), "function-scoped") || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("error should name the owning kernel: %v", err)
	}
	// The cross-kernel branch is reported even behind an earlier
	// finding in the body.
	b.Body = append([]Instruction{{Opcode: "frob.u32"}}, b.Body...)
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "function-scoped") {
		t.Errorf("cross-kernel branch behind an unknown opcode: %v", err)
	}
	// The equivalent source text must be rejected by Parse too.
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry a()\n{\nDONE:\n\tret;\n}\n" +
		".visible .entry b()\n{\n\tbra DONE;\n\tret;\n}\n"
	if _, err := Parse(src); err == nil {
		t.Error("Parse should reject cross-kernel branch targets")
	}
}

func TestModuleRoundTrip(t *testing.T) {
	m := &Module{Version: "6.0", Target: "sm_61", AddressSize: 64}
	m.Kernels = append(m.Kernels, buildLoopKernel(t))
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	text := Print(m)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("parse printed module: %v\n%s", err, text)
	}
	if back.Version != m.Version || back.Target != m.Target || back.AddressSize != 64 {
		t.Errorf("header mismatch: %+v", back)
	}
	if len(back.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(back.Kernels))
	}
	k, bk := m.Kernels[0], back.Kernels[0]
	if bk.Name != k.Name || len(bk.Body) != len(k.Body) || len(bk.Params) != len(k.Params) {
		t.Fatalf("kernel mismatch: %+v vs %+v", bk, k)
	}
	for i := range k.Body {
		if k.Body[i].String() != bk.Body[i].String() {
			t.Errorf("instr %d: %q vs %q", i, k.Body[i].String(), bk.Body[i].String())
		}
	}
	if bk.Labels["$L__BB0_1"] != 1 {
		t.Errorf("label index = %d", bk.Labels["$L__BB0_1"])
	}
	// Second print must be identical (canonical form).
	if Print(back) != text {
		t.Error("print is not canonical")
	}
}

// TestParseFig2Style parses a fragment in the nvcc style of the paper's
// Fig. 2 (comments, reqntid directive, predicated branch, param load).
func TestParseFig2Style(t *testing.T) {
	src := `
// Generated by LLVM NVPTX Back-End
.version 6.0
.target sm_61
.address_size 64
.visible .entry fusion_135(
	.param .u64 fusion_135_param_0
)
{
	.reg .pred %p<14>;
	.reg .b32 %r<20>;
	.reg .b64 %rd<12>;
	mov.u32 %r13, %ctaid.x;
	mov.u32 %r14, %tid.x;
	shl.b32 %r15, %r13, 10;
	shl.b32 %r16, %r14, 2;
	or.b32 %r1, %r16, %r15;
	setp.lt.u32 %p1, %r1, 718296;
	@%p1 bra LBB0_2;
	bra.uni LBB0_1;
LBB0_2:
	ld.param.u64 %rd10, [fusion_135_param_0];
LBB0_1:
	ret;
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k := m.Kernel("fusion_135")
	if k == nil {
		t.Fatal("kernel not found")
	}
	if len(k.Body) != 10 {
		t.Errorf("body = %d instructions", len(k.Body))
	}
	if k.Labels["LBB0_2"] != 8 || k.Labels["LBB0_1"] != 9 {
		t.Errorf("labels = %v", k.Labels)
	}
	if k.Body[6].Pred != "%p1" || k.Body[6].Opcode != "bra" {
		t.Errorf("predicated branch parsed wrong: %+v", k.Body[6])
	}
	if len(k.Regs) != 3 || k.Regs[0].Count != 14 {
		t.Errorf("regs = %+v", k.Regs)
	}
	if m.StaticInstructions() != 10 {
		t.Errorf("static instructions = %d", m.StaticInstructions())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".version 6.0\n.address_size banana\n",
		"garbage line\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p\n)\n{\nadd.s32 %r1, %r2, %r3\n}\n", // missing ';'
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64\n)\n{\nret;\n}\n",                    // bad param
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p\n)\n{\nbra missing;\n}\n",          // undefined label
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseEndLabel(t *testing.T) {
	// A label may point one past the last instruction.
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry k(\n.param .u64 p\n)\n{\n" +
		"setp.lt.u32 %p1, %r1, 4;\n@%p1 bra END;\nmov.u32 %r1, 0;\nEND:\n}\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k := m.Kernels[0]
	if k.Labels["END"] != 3 {
		t.Errorf("END label = %d, want 3 (one past last)", k.Labels["END"])
	}
	// Round trip keeps the trailing label.
	back, err := Parse(Print(m))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Kernels[0].Labels["END"] != 3 {
		t.Error("trailing label lost in round trip")
	}
}

func TestIsLabelName(t *testing.T) {
	good := []string{"LBB0_1", "$L__BB0_2", "end", "_x9"}
	bad := []string{"", "9abc", "with space", "a-b"}
	for _, s := range good {
		if !isLabelName(s) {
			t.Errorf("%q should be a label name", s)
		}
	}
	for _, s := range bad {
		if isLabelName(s) {
			t.Errorf("%q should not be a label name", s)
		}
	}
}

func TestParseInstructionForms(t *testing.T) {
	p := &parser{}
	in, err := p.parseInstruction("ld.global.f32 %f1, [%rd4+16]")
	if err != nil || in.Opcode != "ld.global.f32" || in.Operands[1] != "[%rd4+16]" {
		t.Errorf("load parse: %+v, %v", in, err)
	}
	in, err = p.parseInstruction("@!%p3 mov.u32 %r1, %r2")
	if err != nil || !in.PredNeg || in.Pred != "%p3" {
		t.Errorf("negated predicate parse: %+v, %v", in, err)
	}
	in, err = p.parseInstruction("ret")
	if err != nil || in.Opcode != "ret" || len(in.Operands) != 0 {
		t.Errorf("ret parse: %+v, %v", in, err)
	}
	if _, err := p.parseInstruction("@%p1"); err == nil {
		t.Error("predicate without opcode should error")
	}
}

// TestParsedOperandsDoNotAlias checks that the instructions of a parsed
// kernel, whose operands share one backing array, do not alias: growing
// one instruction's operands leaves the next instruction unchanged.
func TestParsedOperandsDoNotAlias(t *testing.T) {
	m, err := Parse(".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry k(\n.param .u64 k_p0\n)\n{\n" +
		"mov.u32 %r1, %tid.x;\nadd.s32 %r2, %r1, 1;\nret;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	body := m.Kernels[0].Body
	body[0].Operands = append(body[0].Operands, "%r9")
	if got := body[1].Operands; !reflect.DeepEqual(got, []string{"%r2", "%r1", "1"}) {
		t.Errorf("appending to the first instruction's operands changed the next one's to %q", got)
	}
	if body[2].Operands != nil {
		t.Errorf("ret parsed with operands %q", body[2].Operands)
	}
}

func TestModuleValidateDuplicates(t *testing.T) {
	m := &Module{Version: "6.0", Target: "sm_61", AddressSize: 64}
	m.Kernels = append(m.Kernels, &Kernel{Name: "k"}, &Kernel{Name: "k"})
	if err := m.Validate(); err == nil {
		t.Error("duplicate kernels should fail validation")
	}
	m2 := &Module{Version: "6.0", Target: "sm_61", AddressSize: 16}
	if err := m2.Validate(); err == nil {
		t.Error("bad address size should fail validation")
	}
	if (&Module{}).Kernel("x") != nil {
		t.Error("missing kernel lookup should be nil")
	}
}

func TestPrintContainsStructure(t *testing.T) {
	m := &Module{Version: "6.0", Target: "sm_61", AddressSize: 64}
	m.Kernels = append(m.Kernels, buildLoopKernel(t))
	text := Print(m)
	for _, want := range []string{".version 6.0", ".target sm_61", ".visible .entry loop_test(", ".reg .pred %p<2>;", "$L__BB0_1:", "@%p1 bra $L__BB0_1;"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}

// TestParseKernelMalformed exercises the parser's kernel-level error
// paths.
func TestParseKernelMalformed(t *testing.T) {
	header := ".version 6.0\n.target sm_61\n.address_size 64\n"
	cases := map[string]string{
		"unterminated params": header + ".visible .entry k(\n.param .u64 p\n",
		"missing brace":       header + ".visible .entry k(\n.param .u64 p\n)\nret;\n",
		"unterminated body":   header + ".visible .entry k(\n.param .u64 p\n)\n{\nret;\n",
		"nameless entry":      header + ".visible .entry (\n.param .u64 p\n)\n{\nret;\n}\n",
		"bad reg decl":        header + ".visible .entry k(\n.param .u64 p\n)\n{\n.reg .f32;\nret;\n}\n",
		"bad reg bank":        header + ".visible .entry k(\n.param .u64 p\n)\n{\n.reg .f32 %f;\nret;\n}\n",
		"bad reg count":       header + ".visible .entry k(\n.param .u64 p\n)\n{\n.reg .f32 %f<x>;\nret;\n}\n",
		"duplicate label":     header + ".visible .entry k(\n.param .u64 p\n)\n{\nL:\nL:\nret;\n}\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestParseInlineForms covers params on the entry line and instructions
// sharing a line with the closing brace.
func TestParseInlineForms(t *testing.T) {
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry k(.param .u64 p) {\n" +
		"mov.u32 %r1, 0; add.s32 %r1, %r1, 1;\n" +
		"ret; }\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k := m.Kernels[0]
	if len(k.Body) != 3 {
		t.Errorf("body = %d, want 3", len(k.Body))
	}
	if len(k.Params) != 1 || k.Params[0].Name != "p" {
		t.Errorf("params = %+v", k.Params)
	}
	// Performance directives are ignored.
	src2 := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry k(.param .u64 p) {\n.reqntid 256, 1, 1;\nret;\n}\n"
	m2, err := Parse(src2)
	if err != nil {
		t.Fatalf("reqntid: %v", err)
	}
	if len(m2.Kernels[0].Body) != 1 {
		t.Error("reqntid should not become an instruction")
	}
}

func TestValidateEmptyNameAndOpcode(t *testing.T) {
	if err := (&Kernel{}).Validate(); err == nil {
		t.Error("nameless kernel should fail")
	}
	k := &Kernel{Name: "k"}
	k.Append(Instruction{})
	if err := k.Validate(); err == nil {
		t.Error("empty opcode should fail")
	}
	k2 := &Kernel{Name: "k"}
	k2.Append(Instruction{Opcode: "bra"})
	if err := k2.Validate(); err == nil {
		t.Error("bra without operand should fail")
	}
}

func TestSharedMemoryClasses(t *testing.T) {
	if ClassOf("ld.shared.f32") != ClassLoadShared {
		t.Error("ld.shared misclassified")
	}
	if ClassOf("st.shared.f32") != ClassStoreShared {
		t.Error("st.shared misclassified")
	}
	if HasDest("st.shared.f32") {
		t.Error("shared store has no destination")
	}
	if !HasDest("ld.shared.f32") {
		t.Error("shared load has a destination")
	}
	// Plain global accesses keep their classes.
	if ClassOf("ld.global.f32") != ClassLoad || ClassOf("st.global.f32") != ClassStore {
		t.Error("global accesses misclassified")
	}
}

// TestDecodeCacheBounded: distinct spellings beyond maxCachedOpcodes are
// decoded correctly but not retained, so raw PTX cannot grow the
// process-wide cache without bound.
func TestDecodeCacheBounded(t *testing.T) {
	for i := 0; i < maxCachedOpcodes+50; i++ {
		op := fmt.Sprintf("add.x%d", i)
		if got := Decode(op); got.Class != ClassIntALU || got.Root != "add" || !got.Dest {
			t.Fatalf("Decode(%q) = %+v", op, got)
		}
	}
	n := len(*opInfos.Load())
	if n > maxCachedOpcodes {
		t.Fatalf("cache holds %d spellings, bound is %d", n, maxCachedOpcodes)
	}
}
