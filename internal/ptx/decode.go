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
// body must not pin the body. Entries are pointers, so a decoded body
// refers to its opcodes' records instead of copying them.
var (
	opInfos  atomic.Pointer[map[string]*OpInfo]
	opInfoMu sync.Mutex // serializes inserts
)

const maxCachedOpcodes = 1024

// Decode returns the pre-decoded form of a full opcode, memoized
// process-wide by opcode spelling.
func Decode(opcode string) OpInfo { return *decodeRef(opcode) }

// decodeRef is Decode returning the interned record, which callers
// must not modify. A spelling the table does not keep gets a fresh
// record.
func decodeRef(opcode string) *OpInfo {
	if m := opInfos.Load(); m != nil {
		if info, ok := (*m)[opcode]; ok {
			return info
		}
	}
	info := decodeOpcode(opcode)
	// Unknown spellings fail validation; keeping them out of the cache
	// stops malformed input from filling it.
	if info.Class != ClassUnknown {
		return storeOpInfo(opcode, info)
	}
	return &info
}

// storeOpInfo publishes a snapshot with opcode added, unless another
// insert already did or the table is full, and returns opcode's record.
func storeOpInfo(opcode string, info OpInfo) *OpInfo {
	opInfoMu.Lock()
	defer opInfoMu.Unlock()
	var old map[string]*OpInfo
	if m := opInfos.Load(); m != nil {
		old = *m
	}
	if p, ok := old[opcode]; ok {
		return p
	}
	if len(old) >= maxCachedOpcodes {
		return &info
	}
	next := make(map[string]*OpInfo, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	// The record is decoded again from the cloned key: Root and Cmp
	// slice their opcode, which must not be the caller's.
	key := strings.Clone(opcode)
	p := new(OpInfo)
	*p = decodeOpcode(key)
	next[key] = p
	opInfos.Store(&next)
	return p
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

// Src is one decoded source operand. Its text is the instruction's
// (DecodedKernel.SrcText).
type Src struct {
	// Kind says which of the fields below carries the value.
	Kind SrcKind
	// Mem marks a register read as the address of a bracketed memory
	// reference, "[%rd1+4]", rather than directly (SrcReg only).
	Mem bool
	// Reg is the register id (SrcReg only).
	Reg int32
	// Imm is the decimal value (SrcImm), the bit pattern (SrcFloat) or
	// the register's index in SpecialRegs (SrcSpecial).
	Imm int64
}

// Special returns the name of a SrcSpecial operand's register.
func (s Src) Special() string { return SpecialRegs[s.Imm] }

// DecodedInst is one instruction of a DecodedKernel.
type DecodedInst struct {
	// Op is Decode(Opcode), shared with every instruction of the same
	// spelling: read-only.
	Op *OpInfo
	// Guard is the register id of the guard predicate, Dest the id of
	// Instruction.Dest() exactly as written, and Addr the id of the
	// register in the first bracketed operand (destination included);
	// each is -1 when absent.
	Guard, Dest, Addr int32
	// srcEnd is the end of the instruction's sources in
	// DecodedKernel.srcs; they start where the previous one's end.
	srcEnd int32
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
	// srcs holds every instruction's sources, in body order (Srcs).
	srcs []Src
}

// SrcText returns the text of source s of instruction i, with
// surrounding space trimmed.
func (d *DecodedKernel) SrcText(i, s int) string {
	ops := d.Kernel.Body[i].Operands
	if d.Insts[i].Op.Dest && len(ops) > 0 {
		ops = ops[1:]
	}
	return strings.TrimSpace(ops[s])
}

// Srcs returns instruction i's Instruction.Sources(), decoded. The
// slice is the decode's own: read-only.
func (d *DecodedKernel) Srcs(i int) []Src {
	start := int32(0)
	if i > 0 {
		start = d.Insts[i-1].srcEnd
	}
	end := d.Insts[i].srcEnd
	return d.srcs[start:end:end]
}

// DecodeKernel decodes the body of k.
func DecodeKernel(k *Kernel) *DecodedKernel {
	d := &DecodedKernel{Kernel: k, Insts: make([]DecodedInst, len(k.Body))}
	// The opcodes first: they size the sources exactly.
	nops, nsrc := 0, 0
	for i := range k.Body {
		in := &k.Body[i]
		di := &d.Insts[i]
		di.Op = decodeRef(in.Opcode)
		n := len(in.Operands)
		nops += n
		if di.Op.Dest && n > 0 {
			n--
		}
		nsrc += n
	}
	limit := nops + len(k.Body)
	nregs := declaredRegs(k, limit)
	d.Regs = make([]string, 0, nregs)
	d.srcs = make([]Src, 0, nsrc)
	ids := regIDs{d: d, banks: k.Regs, pos: make([]int32, nregs)}
	intern := ids.intern
	for i := range k.Body {
		in := &k.Body[i]
		di := &d.Insts[i]
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
		for _, op := range ops {
			s := Src{Reg: -1}
			text := strings.TrimSpace(op)
			switch r := RegOperand(op); {
			case r != "":
				s.Kind, s.Mem, s.Reg = SrcReg, text[0] == '[', intern(r)
			case IsSpecialReg(text):
				s.Kind, s.Imm = SrcSpecial, int64(specialRegs[text])
			case strings.HasPrefix(text, "0f") || strings.HasPrefix(text, "0F"):
				if bits, err := strconv.ParseUint(text[2:], 16, 64); err == nil {
					s.Kind, s.Imm = SrcFloat, int64(bits)
				}
			case text != "" && strings.IndexByte("+-0123456789", text[0]) >= 0:
				// The guard spares ParseInt's error allocation on text it
				// must reject anyway.
				if v, err := strconv.ParseInt(text, 10, 64); err == nil {
					s.Kind, s.Imm = SrcImm, v
				}
			}
			d.srcs = append(d.srcs, s)
		}
		di.srcEnd = int32(len(d.srcs))
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

// regIDs numbers the registers of one decode in first appearance. A
// spelling of a declared bank, its prefix followed by an index below
// the bank's count written without leading zeros, has a fixed position
// in pos, the banks laid end to end in declaration order; any other
// spelling, or one past the len(pos) positions, goes to a map made on
// first use. A spelling resolves to one position, in the first bank
// it belongs to, and distinct spellings to distinct positions.
type regIDs struct {
	d     *DecodedKernel
	banks []RegDecl
	// pos[p] is the id of the register at position p plus one, 0
	// before its first appearance.
	pos    []int32
	others map[string]int32
}

// intern returns the id of the register spelled r, numbering it on
// first appearance.
func (ids *regIDs) intern(r string) int32 {
	if p := ids.position(r); p >= 0 {
		if id := ids.pos[p]; id > 0 {
			return id - 1
		}
		id := ids.add(r)
		ids.pos[p] = id + 1
		return id
	}
	if id, ok := ids.others[r]; ok {
		return id
	}
	if ids.others == nil {
		ids.others = make(map[string]int32)
	}
	id := ids.add(r)
	ids.others[r] = id
	return id
}

// add numbers the register spelled r.
func (ids *regIDs) add(r string) int32 {
	ids.d.Regs = append(ids.d.Regs, r)
	return int32(len(ids.d.Regs) - 1)
}

// position returns the position of the bank register spelled r, or -1.
func (ids *regIDs) position(r string) int {
	base := 0
	for _, b := range ids.banks {
		if b.Count <= 0 {
			continue
		}
		if base >= len(ids.pos) {
			break
		}
		if n := bankIndex(r, b.Prefix); n >= 0 && n < b.Count && base+n < len(ids.pos) {
			return base + n
		}
		base += min(b.Count, len(ids.pos))
	}
	return -1
}

// bankIndex returns the index of the register spelled r in a bank
// named prefix: r is prefix followed by a decimal index without
// leading zeros. It returns -1 when r is not such a spelling.
func bankIndex(r, prefix string) int {
	if !strings.HasPrefix(r, prefix) {
		return -1
	}
	digits := r[len(prefix):]
	if digits == "" || len(digits) > 9 || (digits[0] == '0' && len(digits) > 1) {
		return -1
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
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
