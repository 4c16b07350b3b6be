// Package absint is a forward abstract interpreter over parsed PTX
// kernels: every virtual register carries a product-lattice value —
// an integer interval crossed with a thread-dependence taint — and the
// engine runs the transfer functions to a fixpoint over the kernel CFG,
// widening at the targets of back edges so loops converge.
//
// The abstraction is affine in the thread index: a register value is
// modelled as B + T·tid, where B (the thread-invariant component) and T
// (the coefficient of %tid.x) are both intervals. T = [0,0] proves the
// value identical across the threads of a block (uniform); a constant
// non-zero T is a proven per-thread stride, which is exactly what
// memory-coalescing classification needs; anything else is a possibly
// thread-dependent unknown. The integer semantics mirror the dynamic
// code analysis executor (internal/dca), which models all registers as
// int64 bit patterns — so facts proved here are facts about the same
// abstract machine the pipeline executes.
package absint

import (
	"slices"
	"strings"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
)

// Value is the product-lattice element of one register: the abstract
// value is B + T*tid with tid ranging over the threads of a block.
type Value struct {
	// B is the thread-invariant component.
	B Interval
	// T is the coefficient of %tid.x. [0,0] proves uniformity.
	T Interval
	// Undef marks a register that may be read before any definition on
	// some feasible path.
	Undef bool
}

// top is the unknown-but-uniform value.
func topUniform() Value { return Value{B: Top(), T: Const(0)} }

// topAny is the unconstrained value (possibly thread-dependent).
func topAny() Value { return Value{B: Top(), T: Top()} }

func constVal(v int64) Value { return Value{B: Const(v), T: Const(0)} }

// Uniform reports whether the value is provably identical across the
// threads of a block.
func (v Value) Uniform() bool { return v.T.Eq(Const(0)) }

// ConstV reports whether the value is a compile-time constant.
func (v Value) ConstV() (int64, bool) {
	if c, ok := v.B.IsConst(); ok && v.Uniform() {
		return c, true
	}
	return 0, false
}

// StrideConst reports whether the per-thread stride (the tid
// coefficient) is a known constant.
func (v Value) StrideConst() (int64, bool) { return v.T.IsConst() }

// Eq is structural lattice equality.
func (v Value) Eq(o Value) bool {
	return v.B.Eq(o.B) && v.T.Eq(o.T) && v.Undef == o.Undef
}

// Join is the pointwise least upper bound.
func (v Value) Join(o Value) Value {
	return Value{B: v.B.Join(o.B), T: v.T.Join(o.T), Undef: v.Undef || o.Undef}
}

// Widen applies interval widening componentwise against the previous
// iterate.
func (v Value) Widen(next Value) Value {
	return Value{B: v.B.Widen(next.B), T: v.T.Widen(next.T), Undef: v.Undef || next.Undef}
}

// BranchClass classifies the terminating conditional branch of a block.
type BranchClass int

const (
	// BranchNone: the block does not end in a guarded branch.
	BranchNone BranchClass = iota
	// BranchUniform: the guard is provably thread-invariant — all
	// threads of a block take the same side.
	BranchUniform
	// BranchDivergent: the guard may depend on the thread index.
	BranchDivergent
)

// String returns a short class mnemonic.
func (c BranchClass) String() string {
	switch c {
	case BranchUniform:
		return "uniform"
	case BranchDivergent:
		return "divergent"
	default:
		return "none"
	}
}

// Branch is the classification of one block's terminating branch.
type Branch struct {
	// Line is the body index of the branch (-1 when the block has none).
	Line int
	// Class grades the guard's thread dependence.
	Class BranchClass
	// Const reports a guard that resolves to one boolean; Taken is its
	// decided direction.
	Const bool
	Taken bool
}

// Space is a memory address space.
type Space int

const (
	SpaceGlobal Space = iota
	SpaceShared
	SpaceParam
)

// String names the address space.
func (s Space) String() string {
	switch s {
	case SpaceShared:
		return "shared"
	case SpaceParam:
		return "param"
	default:
		return "global"
	}
}

// CoalClass grades the coalescing quality of one memory access.
type CoalClass int

const (
	// CoalUniform: all threads of a block address the same location.
	CoalUniform CoalClass = iota
	// CoalCoalesced: consecutive threads touch consecutive elements.
	CoalCoalesced
	// CoalStrided: a known constant stride larger than the element.
	CoalStrided
	// CoalUnknown: the per-thread stride could not be bounded.
	CoalUnknown
)

// String returns a short class mnemonic.
func (c CoalClass) String() string {
	switch c {
	case CoalUniform:
		return "uniform"
	case CoalCoalesced:
		return "coalesced"
	case CoalStrided:
		return "strided"
	default:
		return "unknown"
	}
}

// MemAccess is the address-lattice classification of one load or store.
type MemAccess struct {
	// Line is the body index of the instruction.
	Line int
	// Block is the containing CFG block.
	Block int
	// Space is the address space.
	Space Space
	// Store distinguishes writes from reads.
	Store bool
	// ElemBytes is the access width from the opcode's type suffix.
	ElemBytes int64
	// StrideKnown reports a constant per-thread stride; StrideBytes is
	// its value (0 for a uniform address).
	StrideKnown bool
	StrideBytes int64
	// Class grades the coalescing quality.
	Class CoalClass
	// ConflictWays is the shared-memory bank-conflict degree implied by
	// a known stride (0 when unknown or not shared; 1 means conflict-free).
	ConflictWays int
}

// UndefUse records a register read while possibly undefined.
type UndefUse struct {
	// Line is the reading instruction's body index.
	Line int
	// Reg is the register name.
	Reg string
}

// Result carries the fixpoint solution and the classifications derived
// from it.
type Result struct {
	// Regs names the slots: the registers of the kernel's decode that a
	// guard, destination or source names, by register id (first
	// appearance in the body).
	Regs []string
	// Entry is the per-block entry state (nil: no feasible path reaches
	// the block). Indexed [block][slot], slots parallel to Regs.
	Entry [][]Value
	// Reached marks blocks with a non-nil entry state.
	Reached []bool
	// Branch classifies each block's terminating guarded branch.
	Branch []Branch
	// Accesses classifies every global/shared memory access in body order.
	Accesses []MemAccess
	// UndefUses lists possibly-undefined register reads in body order.
	UndefUses []UndefUse
	// Iterations counts block-transfer applications until the fixpoint.
	Iterations int
	// Widenings counts widening applications.
	Widenings int
	// Converged is false only if the engine hit its iteration cap (the
	// safety net; widening should always converge first).
	Converged bool
}

// EntryValue returns the entry-state value of a register at a block.
// ok is false for unreached blocks and unknown registers.
func (r *Result) EntryValue(block int, reg string) (Value, bool) {
	s := slices.Index(r.Regs, reg)
	if s < 0 || block < 0 || block >= len(r.Entry) || r.Entry[block] == nil {
		return Value{}, false
	}
	return r.Entry[block][s], true
}

// Facts is the fact-count summary used for observability: one fact per
// (reached block, register) entry pair plus one per classified access
// and branch.
func (r *Result) Facts() int {
	n := len(r.Accesses) + len(r.UndefUses)
	for bi, ok := range r.Reached {
		if ok {
			n += len(r.Entry[bi])
		}
		if r.Branch[bi].Class != BranchNone {
			n++
		}
	}
	return n
}

// widenDelay is the number of visits a widen-point block absorbs before
// widening kicks in, letting small constant loops settle exactly first.
const widenDelay = 2

// iterCap bounds block transfers as a safety net; widening guarantees
// convergence far below it for any real kernel.
func iterCap(blocks int) int { return 64 + 32*blocks }

// Analyze runs the abstract interpretation of one kernel over its CFG
// to fixpoint and derives the branch, memory and undef classifications.
// The graph must be cfg.Build(k) of the same kernel.
func Analyze(k *ptx.Kernel, g *cfg.Graph) *Result {
	return AnalyzeDecoded(ptx.DecodeKernel(k), g)
}

// AnalyzeDecoded is Analyze over an already decoded kernel body. Its
// slots are the decode's register ids below NumOperandRegs.
func AnalyzeDecoded(d *ptx.DecodedKernel, g *cfg.Graph) *Result {
	n := len(g.Blocks)
	res := &Result{
		Regs:      d.Regs[:d.NumOperandRegs],
		Entry:     make([][]Value, n),
		Reached:   make([]bool, n),
		Branch:    make([]Branch, n),
		Converged: true,
	}
	for bi := range res.Branch {
		res.Branch[bi].Line = -1
	}
	nslots := len(res.Regs)

	eng := &engine{d: d, g: g, res: res}

	// Entry state: every register starts undefined (reading it is a
	// lint error, so its value is unconstrained in both components).
	entry := make([]Value, nslots)
	for i := range entry {
		entry[i] = Value{B: Top(), T: Top(), Undef: true}
	}

	// Widen points: targets of back edges (covers natural and
	// irreducible loops alike — any cycle crosses one).
	widenAt := make([]bool, n)
	for _, e := range g.BackEdges() {
		widenAt[e[1]] = true
	}

	visits := make([]int, n)
	inWork := make([]bool, n)
	work := []int{0}
	inWork[0] = true
	res.Entry[0] = entry
	res.Reached[0] = true
	cap := iterCap(n)
	for len(work) > 0 {
		if res.Iterations >= cap {
			res.Converged = false
			// Conservative bailout: force every reached entry to top so
			// downstream classifications cannot claim unproven facts.
			for bi := range res.Entry {
				if res.Entry[bi] == nil {
					continue
				}
				for s := range res.Entry[bi] {
					res.Entry[bi][s] = Value{B: Top(), T: Top(), Undef: res.Entry[bi][s].Undef}
				}
			}
			break
		}
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		res.Iterations++
		visits[bi]++
		out := eng.transferBlock(bi, res.Entry[bi], nil)
		for _, edge := range eng.feasibleSuccs(bi, out) {
			si, state := edge.to, edge.state
			prev := res.Entry[si]
			if prev == nil {
				next := make([]Value, nslots)
				copy(next, state)
				res.Entry[si] = next
				res.Reached[si] = true
				if !inWork[si] {
					work = append(work, si)
					inWork[si] = true
				}
				continue
			}
			changed := false
			widen := widenAt[si] && visits[si] >= widenDelay
			for s := range prev {
				j := prev[s].Join(state[s])
				if widen {
					j = prev[s].Widen(j)
				}
				if !j.Eq(prev[s]) {
					prev[s] = j
					changed = true
				}
			}
			if widen && changed {
				res.Widenings++
			}
			if changed && !inWork[si] {
				work = append(work, si)
				inWork[si] = true
			}
		}
	}

	eng.derive()
	return res
}

// edge is one feasible outgoing propagation.
type outEdge struct {
	to    int
	state []Value
}

// engine holds the per-analysis scratch shared by the fixpoint loop and
// the derivation pass.
type engine struct {
	d   *ptx.DecodedKernel
	g   *cfg.Graph
	res *Result
	// state is the one exit state transferBlock works in; every caller
	// copies or joins what it needs from it before the next call.
	state []Value
}

// transferBlock interprets one block from its entry state and returns
// the exit state, valid until the next call. The input is not mutated.
// When sink is non-nil, the per-instruction facts (memory accesses,
// undef uses) are appended to it — the derivation pass's mode.
func (e *engine) transferBlock(bi int, in []Value, sink *Result) []Value {
	st := append(e.state[:0], in...)
	e.state = st
	b := e.g.Blocks[bi]
	for i := b.Start; i < b.End; i++ {
		if sink != nil {
			e.recordFacts(bi, i, st)
		}
		e.transferInst(i, st)
	}
	return st
}

// transferInst applies one instruction's transfer function in place.
func (e *engine) transferInst(i int, st []Value) {
	in := &e.d.Insts[i]
	ds := in.Dest
	if ds < 0 {
		return // stores, branches, barriers, control: no register effect
	}
	v := e.evalDef(i, st)
	if in.Guard >= 0 {
		// A guarded definition may leave the old value in place: weak
		// update. (This also models dca's per-thread predication: the
		// joined value covers both the taken and skipped outcomes.)
		v = st[ds].Join(v)
		v.Undef = st[ds].Undef
	} else {
		v.Undef = false
	}
	st[ds] = v
}

// sameRegText reports whether the first two sources of instruction i
// of d are one register operand spelled twice. A register read
// directly is spelled as its name, so the ids decide; two memory
// references to one register may differ in offset.
func sameRegText(d *ptx.DecodedKernel, i int, srcs []ptx.Src) bool {
	x, y := srcs[0], srcs[1]
	if x.Kind != ptx.SrcReg || y.Kind != ptx.SrcReg || x.Reg != y.Reg || x.Mem != y.Mem {
		return false
	}
	return !x.Mem || d.SrcText(i, 0) == d.SrcText(i, 1)
}

// operand evaluates one source operand against the current state.
func operand(op ptx.Src, st []Value) Value {
	switch op.Kind {
	case ptx.SrcReg:
		return st[op.Reg]
	case ptx.SrcSpecial:
		switch op.Special() {
		case "%tid.x":
			return Value{B: Const(0), T: Const(1)}
		case "%ntid.x", "%nctaid.x":
			return Value{B: Interval{1, PosInf}, T: Const(0)}
		case "%ctaid.x":
			return Value{B: Interval{0, PosInf}, T: Const(0)}
		}
		// Other thread-geometry axes: thread-dependent with an unknown
		// x-stride (a warp can span the y/z axes too).
		if strings.HasPrefix(op.Special(), "%tid.") {
			return topAny()
		}
		return topUniform()
	case ptx.SrcImm, ptx.SrcFloat:
		// Decimal integers, or float bit patterns exactly as the dca
		// executor models them (0f hex bits as an int64).
		return constVal(op.Imm)
	}
	// Unparsable operand (the executor errors on it): unconstrained but
	// thread-invariant — a malformed constant cannot introduce taint.
	return topUniform()
}

// evalDef computes the abstract value the defining instruction at body
// index i produces.
func (e *engine) evalDef(i int, st []Value) Value {
	in := &e.d.Insts[i]
	root := in.Op.Root
	class := in.Op.Class
	srcs := e.d.Srcs(i)
	get := func(i int) Value {
		if i < len(srcs) {
			return operand(srcs[i], st)
		}
		return topAny()
	}

	// Floating-point arithmetic operates on IEEE bit patterns the
	// interval domain cannot track; only the taint component survives.
	if class == ptx.ClassFP32 || class == ptx.ClassFMA || class == ptx.ClassSFU {
		out := topUniform()
		for i := range srcs {
			if !get(i).Uniform() {
				return topAny()
			}
		}
		return out
	}

	switch root {
	case "mov", "cvt", "cvta":
		return get(0)
	case "ld":
		if strings.Contains(e.d.Kernel.Body[i].Opcode, "param") {
			return topUniform() // kernel parameters are grid-uniform
		}
		// Data load: all threads reading one address see one value; a
		// thread-dependent address yields thread-dependent data.
		if get(0).Uniform() {
			return topUniform()
		}
		return topAny()
	case "add":
		a, b := get(0), get(1)
		return Value{B: a.B.Add(b.B), T: a.T.Add(b.T)}
	case "sub":
		a, b := get(0), get(1)
		return Value{B: a.B.Sub(b.B), T: a.T.Sub(b.T)}
	case "neg":
		a := get(0)
		return Value{B: a.B.Neg(), T: a.T.Neg()}
	case "mul":
		return mulVal(get(0), get(1))
	case "mad", "fma":
		p := mulVal(get(0), get(1))
		c := get(2)
		return Value{B: p.B.Add(c.B), T: p.T.Add(c.T)}
	case "shl":
		a, b := get(0), get(1)
		if s, ok := b.ConstV(); ok && s >= 0 && s < 63 {
			return mulVal(a, constVal(int64(1)<<uint(s)))
		}
		if a.Uniform() && b.Uniform() {
			return topUniform()
		}
		return topAny()
	case "min":
		return minMaxVal(get(0), get(1), true)
	case "max":
		return minMaxVal(get(0), get(1), false)
	case "abs":
		a := get(0)
		if !a.Uniform() {
			return topAny()
		}
		if a.B.Lo >= 0 {
			return a
		}
		return topUniform()
	case "setp":
		return setpVal(e.d, i, st)
	case "selp":
		a, b, p := get(0), get(1), get(2)
		if c, ok := p.ConstV(); ok {
			if c != 0 {
				return a
			}
			return b
		}
		out := a.Join(b)
		if !p.Uniform() && !a.Eq(b) {
			// A thread-dependent select of distinct values is itself
			// thread-dependent even when both arms are uniform.
			out.T = Top()
		}
		return out
	case "div", "rem", "shr", "and", "or", "xor", "not":
		for i := range srcs {
			if !get(i).Uniform() {
				return topAny()
			}
		}
		return topUniform()
	default:
		return topAny()
	}
}

// mulVal multiplies two abstract values, staying affine only while at
// most one factor carries the thread index.
func mulVal(a, b Value) Value {
	if b.Uniform() {
		return Value{B: a.B.Mul(b.B), T: a.T.Mul(b.B)}
	}
	if a.Uniform() {
		return Value{B: b.B.Mul(a.B), T: b.T.Mul(a.B)}
	}
	return topAny() // tid² term: outside the affine abstraction
}

// minMaxVal models min/max: exact on uniform values, affine-preserving
// when both sides share one stride.
func minMaxVal(a, b Value, isMin bool) Value {
	if a.Uniform() && b.Uniform() {
		if isMin {
			return Value{B: a.B.MinI(b.B), T: Const(0)}
		}
		return Value{B: a.B.MaxI(b.B), T: Const(0)}
	}
	sa, oka := a.StrideConst()
	sb, okb := b.StrideConst()
	if oka && okb && sa == sb {
		// min(B1+st, B2+st) = min(B1,B2)+st: the stride factors out.
		v := Value{T: a.T}
		if isMin {
			v.B = a.B.MinI(b.B)
		} else {
			v.B = a.B.MaxI(b.B)
		}
		return v
	}
	return topAny()
}

// setpVal evaluates the comparison at body index i of dk to an abstract
// predicate in {0,1}.
func setpVal(dk *ptx.DecodedKernel, i int, st []Value) Value {
	srcs := dk.Srcs(i)
	if len(srcs) < 2 {
		return topAny()
	}
	cmp := dk.Insts[i].Op.Cmp
	a := operand(srcs[0], st)
	b := operand(srcs[1], st)

	// Identical operand text compares a register against itself: the
	// outcome is decided reflexively whatever the value.
	if sameRegText(dk, i, srcs) {
		switch cmp {
		case "eq", "le", "ge":
			return constVal(1)
		case "ne", "lt", "gt":
			return constVal(0)
		}
	}

	// d = a - b decides the comparison; its taint decides divergence.
	d := Value{B: a.B.Sub(b.B), T: a.T.Sub(b.T)}
	pred := Value{B: Interval{0, 1}, T: Const(0)}
	if !d.Uniform() {
		pred.T = Top() // threads may disagree on the outcome
		return pred
	}
	decideTrue, decideFalse := false, false
	switch cmp {
	case "lt":
		decideTrue, decideFalse = d.B.Hi < 0, d.B.Lo >= 0
	case "le":
		decideTrue, decideFalse = d.B.Hi <= 0, d.B.Lo > 0
	case "gt":
		decideTrue, decideFalse = d.B.Lo > 0, d.B.Hi <= 0
	case "ge":
		decideTrue, decideFalse = d.B.Lo >= 0, d.B.Hi < 0
	case "eq":
		if c, ok := d.B.IsConst(); ok && c == 0 {
			decideTrue = true
		}
		decideFalse = !d.B.Contains(0)
	case "ne":
		decideFalse = func() bool { c, ok := d.B.IsConst(); return ok && c == 0 }()
		decideTrue = !d.B.Contains(0)
	default:
		return pred
	}
	switch {
	case decideTrue:
		return constVal(1)
	case decideFalse:
		return constVal(0)
	}
	return pred
}

// feasibleSuccs returns the outgoing edges consistent with the block's
// exit state: a constant branch guard prunes the impossible side.
func (e *engine) feasibleSuccs(bi int, out []Value) []outEdge {
	b := e.g.Blocks[bi]
	if len(b.Succs) == 0 {
		return nil
	}
	edges := make([]outEdge, 0, len(b.Succs))
	all := func() []outEdge {
		for _, s := range b.Succs {
			edges = append(edges, outEdge{to: s, state: out})
		}
		return edges
	}
	last, dl := &e.d.Kernel.Body[b.End-1], &e.d.Insts[b.End-1]
	if !dl.Op.Branch || dl.Guard < 0 || len(last.Operands) != 1 {
		return all()
	}
	c, isConst := out[dl.Guard].ConstV()
	if !isConst {
		return all()
	}
	taken := (c != 0) != last.PredNeg
	tgt, err := e.d.Kernel.Target(last.Operands[0])
	if err != nil {
		return all()
	}
	takenBlock := -1 // a label past the last instruction: the branch exits
	if tgt < len(e.d.Insts) {
		takenBlock = e.g.BlockOf(tgt)
	}
	for _, s := range b.Succs {
		if (s == takenBlock) == taken {
			edges = append(edges, outEdge{to: s, state: out})
		}
	}
	if len(edges) == 0 {
		return all() // defensive: never strand a structurally present edge set
	}
	return edges
}

// derive replays every reached block once from its fixpoint entry state
// and records the per-instruction classifications.
func (e *engine) derive() {
	for bi := range e.g.Blocks {
		if !e.res.Reached[bi] {
			continue
		}
		e.transferBlock(bi, e.res.Entry[bi], e.res)
	}
}

// recordFacts classifies the instruction at body index line at its
// reaching state.
func (e *engine) recordFacts(bi, line int, st []Value) {
	in := &e.d.Insts[line]
	// Possibly-undefined reads: direct register sources plus the guard.
	for _, src := range e.d.Srcs(line) {
		if src.Kind == ptx.SrcReg && st[src.Reg].Undef {
			e.res.UndefUses = append(e.res.UndefUses, UndefUse{Line: line, Reg: e.res.Regs[src.Reg]})
		}
	}
	if in.Guard >= 0 && st[in.Guard].Undef {
		e.res.UndefUses = append(e.res.UndefUses, UndefUse{Line: line, Reg: e.res.Regs[in.Guard]})
	}

	switch in.Op.Class {
	case ptx.ClassLoad, ptx.ClassStore, ptx.ClassLoadShared, ptx.ClassStoreShared:
		e.recordAccess(bi, line, st)
	case ptx.ClassBranch:
		if in.Guard >= 0 && line == e.g.Blocks[bi].End-1 {
			e.res.Branch[bi] = classifyBranch(line, e.d.Kernel.Body[line].PredNeg, st[in.Guard])
		}
	}
}

// classifyBranch grades the guard value v of a terminating conditional
// branch.
func classifyBranch(line int, neg bool, v Value) Branch {
	br := Branch{Line: line, Class: BranchDivergent}
	if v.Uniform() {
		br.Class = BranchUniform
	}
	if c, isConst := v.ConstV(); isConst {
		br.Const = true
		br.Taken = (c != 0) != neg
	}
	return br
}
