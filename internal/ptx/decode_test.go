package ptx_test

import (
	"slices"
	"strings"
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// refRegs numbers the registers of k by a map from spelling, in the
// order DecodedKernel.Regs documents: guard, destination and sources of
// each instruction in turn, then the registers only a bracketed
// destination names.
func refRegs(k *ptx.Kernel) (regs []string, operandRegs int) {
	ids := make(map[string]bool)
	add := func(r string) {
		if r != "" && !ids[r] {
			ids[r] = true
			regs = append(regs, r)
		}
	}
	for _, in := range k.Body {
		add(in.Pred)
		ops := in.Operands
		if ptx.HasDest(in.Opcode) && len(ops) > 0 {
			add(ops[0])
			ops = ops[1:]
		}
		for _, op := range ops {
			add(ptx.RegOperand(op))
		}
	}
	operandRegs = len(regs)
	for _, in := range k.Body {
		for _, op := range in.Operands {
			if strings.HasPrefix(strings.TrimSpace(op), "[") {
				add(ptx.RegOperand(op))
				break
			}
		}
	}
	return regs, operandRegs
}

// checkDecode fails unless the decode of k numbers its registers as
// refRegs does and each decoded source agrees with its text: a
// register read directly is spelled as its name, one read as an
// address sits in brackets, a special register is named by Special,
// and no other operand starts with '%'.
func checkDecode(t *testing.T, k *ptx.Kernel) {
	t.Helper()
	d := ptx.DecodeKernel(k)
	if regs, n := refRegs(k); !slices.Equal(d.Regs, regs) || d.NumOperandRegs != n {
		t.Fatalf("%s: registers %q (%d operand), want %q (%d)", k.Name, d.Regs, d.NumOperandRegs, regs, n)
	}
	for i, in := range k.Body {
		srcs := d.Srcs(i)
		want := in.Sources()
		if len(srcs) != len(want) {
			t.Fatalf("%s: instruction %d: %d sources, want %d", k.Name, i, len(srcs), len(want))
		}
		for s, src := range srcs {
			text := d.SrcText(i, s)
			if text != strings.TrimSpace(want[s]) {
				t.Fatalf("%s: instruction %d source %d: text %q, want %q", k.Name, i, s, text, want[s])
			}
			switch src.Kind {
			case ptx.SrcReg:
				if r := d.Regs[src.Reg]; r != ptx.RegOperand(text) || src.Mem != (text[0] == '[') || !src.Mem && r != text {
					t.Fatalf("%s: instruction %d source %q: register %q, memory %v", k.Name, i, text, r, src.Mem)
				}
			case ptx.SrcSpecial:
				if src.Special() != text {
					t.Fatalf("%s: instruction %d source %q: special register %q", k.Name, i, text, src.Special())
				}
			default:
				if strings.HasPrefix(text, "%") {
					t.Fatalf("%s: instruction %d source %q decoded as kind %d", k.Name, i, text, src.Kind)
				}
			}
		}
	}
}

// TestDecodeMatchesReference holds the decode to checkDecode on every
// kernel of every zoo model and on spellings at the edges of the
// declared banks: a prefix that extends another, leading zeros,
// indices at and past a bank's count, a bank declared twice, a huge
// declaration, registers of no bank and padded operands.
func TestDecodeMatchesReference(t *testing.T) {
	for _, name := range zoo.Names() {
		prog, err := ptxgen.Compile(zoo.MustBuild(name), ptxgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range prog.Module.Kernels {
			checkDecode(t, k)
		}
	}
	k := &ptx.Kernel{Name: "banks", Regs: []ptx.RegDecl{
		{Type: ".b32", Prefix: "%r", Count: 4},
		{Type: ".b32", Prefix: "%r1", Count: 3},
		{Type: ".b32", Prefix: "%r", Count: 8},
		{Type: ".pred", Prefix: "%p", Count: 0},
		{Type: ".b64", Prefix: "%rd", Count: 1 << 40},
	}}
	for _, in := range []ptx.Instruction{
		{Opcode: "mov.u32", Operands: []string{"%r1", "1"}},
		{Opcode: "mov.u32", Operands: []string{"%r12", "%r1"}},
		{Opcode: "mov.u32", Operands: []string{"%r01", "%r0"}},
		{Opcode: "add.s32", Operands: []string{"%r3", "%r4", "%r7"}},
		{Opcode: "add.s32", Operands: []string{"%r10", "%r9", " %r1 "}},
		{Opcode: "ld.global.u32", Operands: []string{"%r2", "[%rd5+4]"}},
		{Opcode: "st.global.u32", Operands: []string{"[%rd99]", "%x"}},
		{Opcode: "setp.lt.s32", Operands: []string{"%p1", "[%rd5]", "[%rd5+8]"}},
		{Opcode: "mov.u32", Operands: []string{"%tid.w", "%tid.y"}},
		{Opcode: "add.s32", Operands: []string{"%r5", "%tid.w", "[%tid.x]"}},
		{Opcode: "bra", Pred: "%p1", Operands: []string{"L"}},
		{Opcode: "st.global.u32", Operands: []string{"[%rd123456789012]", "0f3F800000"}},
	} {
		k.Append(in)
	}
	if err := k.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "ret"})
	checkDecode(t, k)
}
