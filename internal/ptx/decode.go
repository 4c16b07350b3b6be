package ptx

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// NumClasses is the number of distinct Class values, including
// ClassUnknown. Fixed-size histograms indexed by Class use it as their
// array length.
const NumClasses = int(ClassControl) + 1

// OpInfo is the pre-decoded form of one full opcode. Interpreters that
// revisit the same instruction many times (the dynamic code analysis
// walks loop bodies once per iteration) decode the opcode once and keep
// the OpInfo instead of re-splitting the string on every step.
type OpInfo struct {
	// Root is the opcode text before the first '.' ("setp.lt.s32" -> "setp").
	Root string
	// Cmp is the second dotted field — the comparison mnemonic for setp
	// opcodes ("setp.lt.s32" -> "lt") — or "" when absent.
	Cmp string
	// Class is ClassOf(opcode).
	Class Class
	// Branch, Exit, Barrier and Dest mirror IsBranch, IsExit, IsBarrier
	// and HasDest.
	Branch, Exit, Barrier, Dest bool
}

// opInfos interns decoded opcodes. Opcode strings come from a small
// fixed vocabulary (the generator emits a few dozen distinct
// spellings), so the table is tiny and read-mostly: lookups read an
// immutable map snapshot through an atomic pointer, and an insert
// copies the snapshot under opInfoMu. Raw PTX may put any suffix on a
// known root, so inserts stop once the table holds maxCachedOpcodes
// spellings, and keys are cloned: an opcode sliced out of a request
// body must not pin the body.
var (
	opInfos  atomic.Pointer[map[string]OpInfo]
	opInfoMu sync.Mutex // serializes inserts
)

const maxCachedOpcodes = 1024

// Decode returns the pre-decoded form of a full opcode, memoized
// process-wide by opcode spelling.
func Decode(opcode string) OpInfo {
	if m := opInfos.Load(); m != nil {
		if info, ok := (*m)[opcode]; ok {
			return info
		}
	}
	info := decodeOpcode(opcode)
	// Unknown spellings fail validation; keeping them out of the cache
	// stops malformed input from filling it.
	if info.Class != ClassUnknown {
		storeOpInfo(opcode, info)
	}
	return info
}

// storeOpInfo publishes a snapshot with opcode added, unless another
// insert already did or the table is full.
func storeOpInfo(opcode string, info OpInfo) {
	opInfoMu.Lock()
	defer opInfoMu.Unlock()
	var old map[string]OpInfo
	if m := opInfos.Load(); m != nil {
		old = *m
	}
	if _, ok := old[opcode]; ok || len(old) >= maxCachedOpcodes {
		return
	}
	next := make(map[string]OpInfo, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[strings.Clone(opcode)] = info
	opInfos.Store(&next)
}

func decodeOpcode(opcode string) OpInfo {
	root, rest, _ := strings.Cut(opcode, ".")
	cmp, _, _ := strings.Cut(rest, ".")
	c := ClassOf(opcode)
	return OpInfo{
		Root:    root,
		Cmp:     cmp,
		Class:   c,
		Branch:  c == ClassBranch,
		Exit:    c == ClassControl,
		Barrier: c == ClassSync,
		Dest:    hasDestClass(c),
	}
}

// hasDestClass is HasDest keyed by the already-computed class.
func hasDestClass(c Class) bool {
	switch c {
	case ClassStore, ClassStoreShared, ClassBranch, ClassSync, ClassControl, ClassUnknown:
		return false
	}
	return true
}

// SrcKind classifies a decoded source operand.
type SrcKind uint8

const (
	// SrcOther is any operand text without a value: a label, a
	// parameter name, a bracketed reference naming no register, or an
	// unparsable immediate.
	SrcOther SrcKind = iota
	// SrcReg is a virtual register, read directly or as the address of
	// a memory reference ("[%rd1+4]").
	SrcReg
	// SrcSpecial is a read-only hardware register such as "%tid.x".
	SrcSpecial
	// SrcImm is a decimal integer immediate.
	SrcImm
	// SrcFloat is a "0f"/"0F" immediate whose hex bit pattern parses.
	SrcFloat
)

// Src is one decoded source operand.
type Src struct {
	// Kind says which of the fields below carries the value.
	Kind SrcKind
	// Reg is the register id (SrcReg only).
	Reg int32
	// Imm is the decimal value (SrcImm) or the bit pattern (SrcFloat).
	Imm int64
	// Text is the operand with surrounding space trimmed.
	Text string
}

// DecodedInst is one instruction of a DecodedKernel.
type DecodedInst struct {
	// Op is Decode(Opcode).
	Op OpInfo
	// Guard is the register id of the guard predicate, Dest the id of
	// Instruction.Dest() exactly as written, and Addr the id of the
	// register in the first bracketed operand (destination included);
	// each is -1 when absent.
	Guard, Dest, Addr int32
	// Srcs are Instruction.Sources(), decoded.
	Srcs []Src
}

// DecodedKernel is a kernel body decoded once for the static passes:
// one opcode record per instruction and one dense id per register, so
// that passes revisiting instructions work on ints instead of
// re-splitting opcode and operand strings.
type DecodedKernel struct {
	// Kernel is the decoded kernel.
	Kernel *Kernel
	// Insts parallels Kernel.Body.
	Insts []DecodedInst
	// Regs names the register ids. Ids below NumOperandRegs number the
	// registers named by a guard, a destination or a source, in first
	// appearance scanning each instruction's guard, then destination,
	// then sources. Higher ids name registers that appear only inside a
	// bracketed destination operand.
	Regs           []string
	NumOperandRegs int
}

// DecodeKernel decodes the body of k.
func DecodeKernel(k *Kernel) *DecodedKernel {
	nsrc := 0
	for i := range k.Body {
		nsrc += len(k.Body[i].Operands)
	}
	nregs := declaredRegs(k, nsrc+len(k.Body))
	d := &DecodedKernel{Kernel: k, Insts: make([]DecodedInst, len(k.Body)), Regs: make([]string, 0, nregs)}
	ids := make(map[string]int32, nregs)
	intern := func(r string) int32 {
		id, ok := ids[r]
		if !ok {
			id = int32(len(d.Regs))
			ids[r] = id
			d.Regs = append(d.Regs, r)
		}
		return id
	}
	srcs := make([]Src, 0, nsrc)
	for i := range k.Body {
		in := &k.Body[i]
		di := &d.Insts[i]
		di.Op = Decode(in.Opcode)
		di.Guard, di.Dest, di.Addr = -1, -1, -1
		if in.Pred != "" {
			di.Guard = intern(in.Pred)
		}
		ops := in.Operands
		if di.Op.Dest && len(ops) > 0 {
			if ops[0] != "" {
				di.Dest = intern(ops[0])
			}
			ops = ops[1:]
		}
		start := len(srcs)
		for _, op := range ops {
			s := Src{Reg: -1, Text: strings.TrimSpace(op)}
			switch r := RegOperand(op); {
			case r != "":
				s.Kind, s.Reg = SrcReg, intern(r)
			case IsSpecialReg(s.Text):
				s.Kind = SrcSpecial
			case strings.HasPrefix(s.Text, "0f") || strings.HasPrefix(s.Text, "0F"):
				if bits, err := strconv.ParseUint(s.Text[2:], 16, 64); err == nil {
					s.Kind, s.Imm = SrcFloat, int64(bits)
				}
			case s.Text != "" && strings.IndexByte("+-0123456789", s.Text[0]) >= 0:
				// The guard spares ParseInt's error allocation on text it
				// must reject anyway.
				if v, err := strconv.ParseInt(s.Text, 10, 64); err == nil {
					s.Kind, s.Imm = SrcImm, v
				}
			}
			srcs = append(srcs, s)
		}
		di.Srcs = srcs[start:len(srcs):len(srcs)]
	}
	d.NumOperandRegs = len(d.Regs)
	for i := range k.Body {
		for _, op := range k.Body[i].Operands {
			if strings.HasPrefix(strings.TrimSpace(op), "[") {
				if r := RegOperand(op); r != "" {
					d.Insts[i].Addr = intern(r)
				}
				break
			}
		}
	}
	return d
}

// declaredRegs is the number of registers the banks of k declare, at
// most limit. A kernel names at most one register per operand and
// guard, which bounds the hint a hostile declaration could inflate.
func declaredRegs(k *Kernel, limit int) int {
	n := 0
	for _, r := range k.Regs {
		if r.Count > 0 {
			n = min(n+min(r.Count, limit), limit)
		}
	}
	return n
}
