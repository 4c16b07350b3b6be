package dca

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
)

// The bytecode instruction set. Each opcode spelling the reference
// interpreter understands lowers to one of these; anything it would
// reject lowers to copBad, which raises the same error lazily — only
// when the instruction is actually reached with its guard true — so
// compilation itself never fails on code the thread never executes.
type copKind uint8

const (
	// copBad errors when executed: unknown opcode root, missing
	// operands, or an unknown setp comparison.
	copBad copKind = iota
	copMov
	copNeg
	copNot
	copAbs
	copLdParam // a: parameter position, or by-name fallback via name
	copLdData  // global/shared load: zero in Full mode, error in slice mode
	copNop     // st, bar, membar: no register effects
	copAdd
	copSub
	copMul
	copDiv
	copRem
	copMin
	copMax
	copAnd
	copOr
	copXor
	copShl
	copShr
	copMad
	copSetp
	copSelp
	copSfu // rcp/sqrt/rsqrt/ex2/lg2/sin/cos: dst = 0
	copBra
	copExit
)

// cmpKind encodes the setp comparison.
type cmpKind uint8

const (
	cmpBad cmpKind = iota // unknown comparison: errors when executed
	cmpLT
	cmpLE
	cmpGT
	cmpGE
	cmpEQ
	cmpNE
)

var cmpKinds = map[string]cmpKind{
	"lt": cmpLT, "le": cmpLE, "gt": cmpGT, "ge": cmpGE, "eq": cmpEQ, "ne": cmpNE,
}

var binopKinds = map[string]copKind{
	"add": copAdd, "sub": copSub, "mul": copMul, "div": copDiv,
	"rem": copRem, "min": copMin, "max": copMax, "and": copAnd,
	"or": copOr, "xor": copXor, "shl": copShl, "shr": copShr,
}

// refKind tags how an operand reference resolves at execution time.
type refKind uint8

const (
	refImm  refKind = iota // val is the immediate value
	refSlot                // val is a frame slot index
	refTid
	refNTid
	refCtaID
	refNCtaID
	refBad // unparsable operand: val indexes badNames, errors when read
)

// ref is one pre-decoded operand.
type ref struct {
	kind refKind
	val  int64
}

// cinst is one bytecode instruction.
type cinst struct {
	op      copKind
	cmp     cmpKind
	predNeg bool
	pred    int32 // guard predicate slot, -1 when unguarded
	dst     int32 // destination slot, -1 when none
	a, b, c ref
	// target is the branch destination pc for copBra (-1: unresolved
	// label, errors when taken) and the declared-parameter position for
	// copLdParam (-1: undeclared name, resolved via name at run time).
	target int32
	back   bool   // copBra: target <= pc (a taken branch counts a loop iteration)
	name   string // copLdParam by-name fallback; copBad/refBad error text
}

// affineLoop is a single-block self-loop whose trip count has a closed
// form: a lone induction variable advanced by a compile-time-constant
// step and compared against a loop-invariant bound.
type affineLoop struct {
	start, end int32 // block bounds [start, end) in pc space
	ind        int32 // induction-variable slot, written only by the add
	pred       int32 // the setp destination / branch guard slot
	step       int64 // per-iteration increment (negative for sub)
	bound      ref   // loop-invariant bound operand
	// cmp is the normalized continue condition: the loop repeats while
	// cmp(ind, bound) holds. Restricted to lt/le (step>0) and gt/ge
	// (step<0), so the loop provably terminates and the trip count is
	// n = max(1, ceil((bound-ind0)/step)) and its mirror forms.
	cmp cmpKind
	// predNeg records the back branch's guard polarity: after a
	// closed-form exit the predicate slot holds the last raw setp
	// result, which is 1 for a negated guard and 0 otherwise.
	predNeg       bool
	perIterSteps  int64                 // instructions counted per iteration (block length)
	perIterInterp int64                 // instructions interpreted per iteration
	hist          [ptx.NumClasses]int64 // per-class counts of one iteration
}

// CompiledKernel is one kernel's control slice lowered to register-slot
// bytecode: opcodes interned to an enum, register names resolved to
// frame slots, immediates and special registers pre-decoded, branch
// targets pre-resolved to pc indices, and per-pc classes precomputed.
// A compiled kernel is immutable and safe for concurrent Execute
// calls; the analysis cache shares one instance across content-identical
// kernels (parameters are therefore bound by declaration position, not
// by name).
type CompiledKernel struct {
	code   []cinst
	interp []bool // pc is interpreted (in the slice, or Full mode)
	// nextInterp[pc] is the first interpreted pc >= pc (len(code) when
	// none): the length of the counted-only run starting at pc.
	nextInterp []int32
	class      []ptx.Class
	// classPrefix[i*NumClasses+c] counts class-c instructions in
	// body[0:i], so any counted-only run accounts its class histogram
	// with NumClasses subtractions instead of one increment per pc.
	classPrefix []int64
	// loops[pc] is non-nil when pc heads a closed-form countable loop.
	loops    []*affineLoop
	slots    int
	full     bool
	maxSteps int64
	regNames []string // slot -> register name, for error messages
	badNames []string // refBad -> original operand text
}

// Compile lowers the kernel's control slice to bytecode under the given
// executor options (Full and MaxSteps are baked in; cache keys must
// include them). It fails only when the slice does not cover the body;
// per-instruction problems lower to lazily-erroring bytecode so the
// compiled kernel mirrors the reference interpreter's behavior exactly.
func Compile(k *ptx.Kernel, slice *ControlSlice, opts ExecOptions) (*CompiledKernel, error) {
	g, loops, _ := kernelCFG(k, nil)
	return compile(ptx.DecodeKernel(k), slice, opts, g, loops)
}

// compile is Compile over the decoded kernel, reading its CFG and
// natural loops from its shared static analysis.
func compile(d *ptx.DecodedKernel, slice *ControlSlice, opts ExecOptions, g *CFG, loops []ptxanalysis.Loop) (*CompiledKernel, error) {
	k := d.Kernel
	n := len(k.Body)
	if len(slice.InSlice) != n {
		return nil, fmt.Errorf("dca: compile: slice covers %d of %d instructions", len(slice.InSlice), n)
	}
	c := &CompiledKernel{
		code:        make([]cinst, n),
		interp:      make([]bool, n),
		nextInterp:  make([]int32, n+1),
		class:       make([]ptx.Class, n),
		classPrefix: make([]int64, (n+1)*ptx.NumClasses),
		loops:       make([]*affineLoop, n),
		full:        opts.Full,
		maxSteps:    opts.effectiveMaxSteps(),
		regNames:    make([]string, 0, d.NumOperandRegs), // one slot per register at most, bar rare spellings
	}
	lw := &lowering{c: c, d: d, regSlot: make([]int32, d.NumOperandRegs), params: paramOrder(k.Params)}
	for pc := range k.Body {
		info := &d.Insts[pc].Op
		c.class[pc] = info.Class
		c.interp[pc] = opts.Full || slice.InSlice[pc]
		base := pc * ptx.NumClasses
		copy(c.classPrefix[base+ptx.NumClasses:base+2*ptx.NumClasses], c.classPrefix[base:base+ptx.NumClasses])
		c.classPrefix[base+ptx.NumClasses+int(info.Class)]++
		if c.interp[pc] {
			c.code[pc] = lw.inst(pc)
		}
	}
	next := int32(n)
	c.nextInterp[n] = next
	for pc := n - 1; pc >= 0; pc-- {
		if c.interp[pc] {
			next = int32(pc)
		}
		c.nextInterp[pc] = next
	}
	c.slots = len(c.regNames)
	c.detectLoops(g, loops)
	return c, nil
}

// lowering is the state of one compile: it resolves registers to frame
// slots and parameter names to declaration positions.
type lowering struct {
	c *CompiledKernel
	d *ptx.DecodedKernel
	// regSlot[id] is the frame slot of register id plus one (0: none
	// yet). Slots are numbered in first-use order.
	regSlot []int32
	// byText is set once a slot was allocated for an operand that names
	// no register id: a special register other than the four .x ones,
	// or an operand with surrounding space.
	byText bool
	// params orders the parameter positions by name, then position.
	params []int32
}

// newSlot allocates the next frame slot, named name in error messages.
func (lw *lowering) newSlot(name string) int32 {
	lw.c.regNames = append(lw.c.regNames, name)
	return int32(len(lw.c.regNames) - 1)
}

// textSlot returns the slot of the register spelled name: a slot is
// identified by its spelling, so an operand that names no register id
// shares the slot of a register spelled the same way. It scans the
// slots, which only such rare operands reach.
func (lw *lowering) textSlot(name string) int32 {
	for s, n := range lw.c.regNames {
		if n == name {
			return int32(s)
		}
	}
	lw.byText = true
	return lw.newSlot(name)
}

// slot returns the frame slot of register id.
func (lw *lowering) slot(id int32) int32 {
	if s := lw.regSlot[id]; s > 0 {
		return s - 1
	}
	var s int32
	if lw.byText {
		s = lw.textSlot(lw.d.Regs[id])
	} else {
		s = lw.newSlot(lw.d.Regs[id])
	}
	lw.regSlot[id] = s + 1
	return s
}

// operand lowers source operand op, decoded as src.
func (lw *lowering) operand(op string, src *ptx.Src) ref {
	if len(op) == len(src.Text) {
		switch src.Kind {
		case ptx.SrcImm, ptx.SrcFloat:
			return ref{kind: refImm, val: src.Imm}
		case ptx.SrcReg:
			// A memory reference names a register but has no value.
			if op[0] == '%' {
				return ref{kind: refSlot, val: int64(lw.slot(src.Reg))}
			}
		case ptx.SrcSpecial:
			switch op {
			case "%tid.x":
				return ref{kind: refTid}
			case "%ntid.x":
				return ref{kind: refNTid}
			case "%ctaid.x":
				return ref{kind: refCtaID}
			case "%nctaid.x":
				return ref{kind: refNCtaID}
			}
			// Any other special register reads as a register.
			return ref{kind: refSlot, val: int64(lw.textSlot(op))}
		}
	} else if strings.HasPrefix(op, "%") {
		// Surrounding space: a register spelled with it.
		return ref{kind: refSlot, val: int64(lw.textSlot(op))}
	}
	c := lw.c
	c.badNames = append(c.badNames, op)
	return ref{kind: refBad, val: int64(len(c.badNames) - 1)}
}

// paramOrder returns the positions of params ordered by name, then by
// position, for paramPos.
func paramOrder(params []ptx.Param) []int32 {
	order := make([]int32, len(params))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(params[a].Name, params[b].Name) })
	return order
}

// paramPos returns the position of the parameter declared as name (the
// last such declaration), or false when none is.
func (lw *lowering) paramPos(name string) (int32, bool) {
	params := lw.d.Kernel.Params
	i := sort.Search(len(lw.params), func(i int) bool { return params[lw.params[i]].Name > name })
	if i > 0 && params[lw.params[i-1]].Name == name {
		return lw.params[i-1], true
	}
	return 0, false
}

// inst lowers the interpreted instruction at pc, mirroring the
// reference interpreter's step/branch/exit handling case for case.
func (lw *lowering) inst(pc int) cinst {
	k := lw.d.Kernel
	in, di := &k.Body[pc], &lw.d.Insts[pc]
	info := &di.Op
	ci := cinst{pred: -1, dst: -1, target: -1}
	if di.Guard >= 0 {
		ci.pred = lw.slot(di.Guard)
		ci.predNeg = in.PredNeg
	}
	if info.Branch {
		ci.op = copBra
		if len(in.Operands) == 1 {
			if tgt, err := k.Target(in.Operands[0]); err == nil {
				ci.target = int32(tgt)
				ci.back = tgt <= pc
			} else {
				ci.name = in.Operands[0]
			}
		}
		return ci
	}
	if info.Exit {
		ci.op = copExit
		return ci
	}
	src := in.Operands
	if info.Dest {
		if di.Dest >= 0 {
			ci.dst = lw.slot(di.Dest)
		} else {
			ci.dst = lw.textSlot("") // no destination operand
		}
		if len(src) > 0 {
			src = src[1:]
		}
	}
	operand := func(i int) ref { return lw.operand(src[i], &di.Srcs[i]) }
	// bad returns the lazily-erroring form carrying the reference
	// interpreter's message for this instruction; the kernel name is
	// substituted at execution time (compiled code is shared across
	// content-identical kernels under different names).
	bad := func(msg string) cinst {
		ci.op = copBad
		ci.name = msg
		return ci
	}
	need := func(want int) bool { return len(src) >= want }
	arity := func(want int) cinst {
		return bad(fmt.Sprintf("dca: kernel %s pc %d: %s needs %d sources, has %d", kernelPlaceholder, pc, in.Opcode, want, len(src)))
	}
	switch info.Root {
	case "mov", "cvt", "cvta":
		if !need(1) {
			return arity(1)
		}
		ci.op, ci.a = copMov, operand(0)
	case "neg":
		if !need(1) {
			return arity(1)
		}
		ci.op, ci.a = copNeg, operand(0)
	case "not":
		if !need(1) {
			return arity(1)
		}
		ci.op, ci.a = copNot, operand(0)
	case "abs":
		if !need(1) {
			return arity(1)
		}
		ci.op, ci.a = copAbs, operand(0)
	case "ld":
		if !need(1) {
			return arity(1)
		}
		if strings.Contains(in.Opcode, "param") {
			ci.op = copLdParam
			name := strings.Trim(src[0], "[]")
			if pos, ok := lw.paramPos(name); ok {
				// Declared parameters bind by position: the compiled
				// kernel is shared across content-identical kernels
				// whose parameter names differ.
				ci.target = pos
			} else {
				ci.name = name
			}
			return ci
		}
		ci.op = copLdData
	case "st", "bar", "membar":
		ci.op = copNop
	case "add", "sub", "mul", "div", "rem", "min", "max", "and", "or", "xor", "shl", "shr":
		if !need(2) {
			return arity(2)
		}
		ci.op = binopKinds[info.Root]
		ci.a, ci.b = operand(0), operand(1)
	case "mad", "fma":
		if !need(3) {
			return arity(3)
		}
		ci.op = copMad
		ci.a, ci.b, ci.c = operand(0), operand(1), operand(2)
	case "setp":
		if !need(2) {
			return arity(2)
		}
		ci.op = copSetp
		ci.cmp = cmpKinds[info.Cmp] // cmpBad when unknown: errors when executed
		if ci.cmp == cmpBad {
			ci.name = info.Cmp
		}
		ci.a, ci.b = operand(0), operand(1)
	case "selp":
		if !need(3) {
			return arity(3)
		}
		ci.op = copSelp
		ci.a, ci.b, ci.c = operand(0), operand(1), operand(2)
	case "rcp", "sqrt", "rsqrt", "ex2", "lg2", "sin", "cos":
		ci.op = copSfu
	default:
		return bad(fmt.Sprintf("dca: kernel %s pc %d: cannot interpret opcode %q", kernelPlaceholder, pc, in.Opcode))
	}
	return ci
}

// kernelPlaceholder marks where the launched kernel's quoted name is
// substituted into a pre-rendered lazy error message.
const kernelPlaceholder = "\x00kernel\x00"

// detectLoops registers closed-form trip counts for the affine
// single-block self-loops among the kernel's natural loops. Kernels the
// CFG builder rejects have none, so they get no closed forms — execution
// still works, iterating such loops one step at a time.
func (c *CompiledKernel) detectLoops(g *CFG, loops []ptxanalysis.Loop) {
	for _, l := range loops {
		if len(l.Blocks) != 1 {
			continue // multi-block loops iterate normally
		}
		b := g.Blocks[l.Header]
		if al := c.analyzeSelfLoop(b.Start, b.End); al != nil {
			c.loops[b.Start] = al
		}
	}
}

// analyzeSelfLoop decides whether the single-block loop [start, end) is
// affine and countable. The generated reduction loops all share one
// shape — the only interpreted instructions are the induction update
// (add/sub ind, ind, imm), the exit test (setp cmp p, ind, bound) and
// the guarded back branch — and that is exactly the shape accepted
// here; anything else falls back to per-iteration interpretation.
func (c *CompiledKernel) analyzeSelfLoop(start, end int) *affineLoop {
	var interp []int32
	for pc := start; pc < end; pc++ {
		if c.interp[pc] {
			interp = append(interp, int32(pc))
		}
	}
	if len(interp) != 3 || interp[2] != int32(end-1) {
		return nil
	}
	ad, sp, bra := &c.code[interp[0]], &c.code[interp[1]], &c.code[end-1]
	if bra.op != copBra || int(bra.target) != start || bra.pred < 0 {
		return nil
	}
	// Induction update: unguarded ind = ind +/- constant.
	if ad.pred != -1 || ad.dst < 0 {
		return nil
	}
	var step int64
	switch {
	case ad.op == copAdd && ad.a.kind == refSlot && ad.a.val == int64(ad.dst) && ad.b.kind == refImm:
		step = ad.b.val
	case ad.op == copSub && ad.a.kind == refSlot && ad.a.val == int64(ad.dst) && ad.b.kind == refImm:
		step = -ad.b.val
	default:
		return nil
	}
	if step == 0 {
		return nil
	}
	ind := ad.dst
	// Exit test: unguarded setp writing the branch guard, comparing the
	// induction variable against a loop-invariant bound. Only the add
	// and the setp write inside the block, so any other operand — an
	// immediate, a special register, or a slot that is neither ind nor
	// the guard — is invariant across iterations.
	if sp.op != copSetp || sp.pred != -1 || sp.dst != bra.pred || sp.dst == ind {
		return nil
	}
	cmp := sp.cmp
	bound := sp.b
	if sp.a.kind != refSlot || sp.a.val != int64(ind) {
		if sp.b.kind != refSlot || sp.b.val != int64(ind) {
			return nil
		}
		// Bound on the left: flip the comparison.
		bound = sp.a
		switch cmp {
		case cmpLT:
			cmp = cmpGT
		case cmpLE:
			cmp = cmpGE
		case cmpGT:
			cmp = cmpLT
		case cmpGE:
			cmp = cmpLE
		}
	}
	if bound.kind == refBad || (bound.kind == refSlot && (bound.val == int64(ind) || bound.val == int64(sp.dst))) {
		return nil
	}
	// A negated guard continues the loop while the comparison fails.
	if bra.predNeg {
		switch cmp {
		case cmpLT:
			cmp = cmpGE
		case cmpLE:
			cmp = cmpGT
		case cmpGT:
			cmp = cmpLE
		case cmpGE:
			cmp = cmpLT
		case cmpEQ:
			cmp = cmpNE
		case cmpNE:
			cmp = cmpEQ
		}
	}
	// Only monotone conditions moving toward their bound terminate with
	// a closed form; eq/ne and wrong-direction loops iterate normally
	// (and hit the MaxSteps guard exactly as the reference does).
	switch cmp {
	case cmpLT, cmpLE:
		if step < 0 {
			return nil
		}
	case cmpGT, cmpGE:
		if step > 0 {
			return nil
		}
	default:
		return nil
	}
	al := &affineLoop{
		start: int32(start), end: int32(end),
		ind: ind, pred: sp.dst, step: step, bound: bound, cmp: cmp,
		predNeg:       bra.predNeg,
		perIterSteps:  int64(end - start),
		perIterInterp: 3,
	}
	base := start * ptx.NumClasses
	top := end * ptx.NumClasses
	for cl := 0; cl < ptx.NumClasses; cl++ {
		al.hist[cl] = c.classPrefix[top+cl] - c.classPrefix[base+cl]
	}
	return al
}

// trips solves the loop's trip count for the given entry value and
// bound. ok is false when the closed form cannot be trusted — operand
// magnitudes large enough that the reference interpreter's wrap-around
// arithmetic could diverge from exact math — in which case the caller
// iterates the loop normally.
func (al *affineLoop) trips(v0, bound int64) (n int64, ok bool) {
	const lim = int64(1) << 61
	if v0 <= -lim || v0 >= lim || bound <= -lim || bound >= lim {
		return 0, false
	}
	switch al.cmp {
	case cmpLT: // while ind < bound, step > 0
		n = ceilDiv(bound-v0, al.step)
	case cmpLE:
		n = ceilDiv(bound-v0+1, al.step)
	case cmpGT: // while ind > bound, step < 0
		n = ceilDiv(v0-bound, -al.step)
	case cmpGE:
		n = ceilDiv(v0-bound+1, -al.step)
	}
	// The body always runs once: the exit test sits at the bottom.
	if n < 1 {
		n = 1
	}
	// Keep every intermediate induction value far from the int64 limits
	// so closed-form arithmetic matches the iterated wrap-around exactly.
	step := al.step
	if step < 0 {
		step = -step
	}
	if n >= lim/step {
		return 0, false
	}
	return n, true
}

// ceilDiv is ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}
