package dca

import (
	"reflect"
	"slices"
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/zoo"
)

// checkGraphsMatchReference fails unless the dependency graph and the
// control slice built over the decoded kernel equal the string-walking
// oracle's (refBuildDepGraph, refBuildControlSlice) on k.
func checkGraphsMatchReference(t *testing.T, what string, k *ptx.Kernel) {
	t.Helper()
	d := ptx.DecodeKernel(k)
	got, want := buildDepGraph(d), refBuildDepGraph(k)
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.deps, want.deps) {
		t.Fatalf("%s: decoded dependency graph %v %v, reference %v %v", what, got.off, got.deps, want.off, want.deps)
	}
	gs, ws := buildControlSlice(d, got), refBuildControlSlice(k, want)
	if !reflect.DeepEqual(gs.InSlice, ws.InSlice) || gs.Size != ws.Size {
		t.Fatalf("%s: decoded control slice %v (%d), reference %v (%d)", what, gs.InSlice, gs.Size, ws.InSlice, ws.Size)
	}
}

// TestDecodedGraphsMatchReferenceOnZoo holds the decoded dependency
// graph and control slice to the string-walking oracle on every kernel
// of every zoo model.
func TestDecodedGraphsMatchReferenceOnZoo(t *testing.T) {
	for _, name := range zoo.Names() {
		for _, k := range compileZoo(t, name).Module.Kernels {
			checkGraphsMatchReference(t, name+" "+k.Name, k)
		}
	}
}

// operandSpellings are bodies whose operands the decoded lowering must
// treat as the text would: a register read through a memory reference
// in an ALU slot (no value), special registers other than the four .x
// ones (registers, written or not, named by their spelling, whichever
// of read and write is lowered first) and a destination-less SFU
// opcode.
var operandSpellings = []struct{ name, body string }{
	{"memory_reference_in_alu", "mov.u32 %r1, 4;\nadd.s32 %r2, [%r1], 1;\nsetp.lt.s32 %p1, %r2, 9;\n@%p1 bra L;\nL:\nret;\n"},
	{"special_read_unwritten", "add.s32 %r1, %tid.y, 1;\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 bra L;\nL:\nret;\n"},
	{"special_written_then_read", "mov.u32 %ctaid.z, 5;\nadd.s32 %r1, %ctaid.z, 1;\nsetp.lt.s32 %p1, %r1, 7;\n@%p1 bra L;\nadd.s32 %r2, %r1, 1;\nL:\nret;\n"},
	{"special_read_lowered_first", "setp.eq.s32 %p1, 1, 1;\n@%p1 bra W;\nR:\nadd.s32 %r1, %tid.y, 1;\n" +
		"setp.lt.s32 %p2, %r1, 7;\n@%p2 bra END;\nret;\nW:\nmov.u32 %tid.y, 5;\nbra R;\nEND:\nret;\n"},
	{"sfu_without_operands", "rcp.approx.f32;\nmov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 4;\n@%p1 bra L;\nL:\nret;\n"},
}

// TestCompiledOperandSpellings holds the compiled engine to the
// reference interpreter, and the decoded graphs to the oracle, on the
// operand spellings where a register id and the operand text could
// part, in sliced and full mode. The hand-built kernel pads operands
// with space, which the parser never leaves: a padded register is
// another register, and a padded immediate has no value.
func TestCompiledOperandSpellings(t *testing.T) {
	var ks []*ptx.Kernel
	for _, tc := range operandSpellings {
		k := parseOne(t, tc.body)
		k.Name = tc.name
		ks = append(ks, k)
	}
	padded := &ptx.Kernel{Name: "padded", Params: []ptx.Param{{Type: ".u64", Name: "p0"}}}
	for _, in := range []ptx.Instruction{
		{Opcode: "mov.u32", Operands: []string{"%r1", "3"}},
		{Opcode: "mov.u32", Operands: []string{"%r2 ", "4"}},
		{Opcode: "add.s32", Operands: []string{"%r3", "%r2 ", "%r1"}},
		{Opcode: "add.s32", Operands: []string{"%r4", "%r1 ", " 1"}},
		{Opcode: "setp.lt.s32", Operands: []string{"%p1", "%r3", "%r4"}},
		{Opcode: "bra", Pred: "%p1", Operands: []string{"L"}},
	} {
		padded.Append(in)
	}
	if err := padded.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	padded.Append(ptx.Instruction{Opcode: "ret"})
	ks = append(ks, padded)
	ctx := ThreadCtx{NTid: 32, NCtaID: 2}
	for _, k := range ks {
		checkGraphsMatchReference(t, k.Name, k)
		for _, full := range []bool{false, true} {
			bothEngines(t, k, map[string]int64{"p0": 7}, ctx, ExecOptions{Full: full, MaxSteps: 1000})
		}
	}
}
