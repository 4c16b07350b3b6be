package dca

import (
	"fmt"
	"math"
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
	refBad // unparsable operand: val indexes names, errors when read
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
	back    bool  // copBra: target <= pc (a taken branch counts a loop iteration)
	pred    int32 // guard predicate slot, -1 when unguarded
	dst     int32 // destination slot, -1 when none
	// target is the branch destination pc for copBra (-1: unresolved
	// label, errors when taken) and the declared-parameter position for
	// copLdParam (-1: undeclared name, resolved via name at run time).
	target int32
	loop   int32 // index in loops of the closed-form loop this pc heads, -1 when none
	// name indexes CompiledKernel.names: the label of an unresolved
	// copBra, the by-name fallback of copLdParam, the error text of
	// copBad, the comparison of a cmpBad copSetp.
	name    int32
	a, b, c ref
}

// skipRun is a counted-only stretch [pc, end) of the body, entered at
// pc: executing it charges its class histogram without interpreting
// an instruction.
type skipRun struct {
	end  int32 // the first interpreted pc after pc, or the body length
	loop int32 // as cinst.loop, for the pc the run starts at
	hist [ptx.NumClasses]int32
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
// targets pre-resolved to pc indices, and the class histograms of the
// counted-only runs precomputed. A compiled kernel is immutable and
// safe for concurrent Execute calls. The analysis derives one per
// kernel and call and never caches it (kernelFacts.prepare).
// Parameters are read by declaration position, as frame.bindParams
// binds them.
type CompiledKernel struct {
	// at[pc] locates the entry for pc: code[at[pc]] when pc is
	// interpreted (in the slice, or Full mode), runs[^at[pc]] when it
	// is counted only. Counted-only pcs that execution cannot enter —
	// it enters at pc 0, after an interpreted pc and at the target of
	// an interpreted branch, and leaves a run at its end — have no run.
	at    []int32
	code  []cinst   // the interpreted instructions, in pc order
	runs  []skipRun // the counted-only runs, located through at
	class []uint8   // class[pc] is the ptx.Class of pc
	// loops are the closed-form countable loops, indexed by the loop
	// field of their header's cinst or skipRun.
	loops    []affineLoop
	slots    int
	full     bool
	maxSteps int64
	// slotRegs names the frame slots, for error messages: slot s is
	// register slotRegs[s] of regs, the decoded kernel's register
	// names, or, for ^i, the operand text names[i].
	slotRegs []int32
	regs     []string
	names    []string // the texts cinst.name and refBad operands index
}

// noRun marks, in CompiledKernel.at, a counted-only pc that execution
// never enters.
const noRun = math.MinInt32

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
	ninterp := n
	if !opts.Full {
		ninterp = slice.Size
	}
	c := &CompiledKernel{
		at:       make([]int32, n),
		code:     make([]cinst, 0, ninterp),
		class:    make([]uint8, n),
		full:     opts.Full,
		maxSteps: opts.effectiveMaxSteps(),
		slotRegs: make([]int32, 0, d.NumOperandRegs), // one slot per register at most, bar rare spellings
		regs:     d.Regs,
	}
	lw := &lowering{c: c, d: d, regSlot: make([]int32, d.NumOperandRegs), params: paramOrder(k.Params)}
	// Interpreted pcs first: a run's entries include the targets of
	// the interpreted branches.
	for pc := range k.Body {
		c.class[pc] = uint8(d.Insts[pc].Op.Class)
		if opts.Full || slice.InSlice[pc] {
			c.at[pc] = int32(len(c.code))
			c.code = append(c.code, lw.inst(pc))
		} else {
			c.at[pc] = noRun
		}
	}
	nruns := 0
	entered := func(pc int) {
		if pc < n && c.at[pc] == noRun {
			c.at[pc] = ^int32(0) // a run, numbered below
			nruns++
		}
	}
	entered(0)
	for pc := range k.Body {
		if c.at[pc] < 0 {
			continue
		}
		entered(pc + 1)
		if ci := &c.code[c.at[pc]]; ci.op == copBra && ci.target >= 0 {
			entered(int(ci.target))
		}
	}
	// Each run ends at the next interpreted pc; its histogram is summed
	// backwards from there.
	c.runs = make([]skipRun, 0, nruns)
	var hist [ptx.NumClasses]int32
	for end, pc := n, n-1; pc >= 0; pc-- {
		if c.at[pc] >= 0 {
			end, hist = pc, [ptx.NumClasses]int32{}
			continue
		}
		hist[c.class[pc]]++
		if c.at[pc] != noRun {
			c.at[pc] = ^int32(len(c.runs))
			c.runs = append(c.runs, skipRun{end: int32(end), loop: -1, hist: hist})
		}
	}
	c.slots = len(c.slotRegs)
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

// newSlot allocates the next frame slot, named as slotRegs says.
func (lw *lowering) newSlot(reg int32) int32 {
	lw.c.slotRegs = append(lw.c.slotRegs, reg)
	return int32(len(lw.c.slotRegs) - 1)
}

// textSlot returns the slot of the register spelled name: a slot is
// identified by its spelling, so an operand that names no register id
// shares the slot of a register spelled the same way. It scans the
// slots, which only such rare operands reach.
func (lw *lowering) textSlot(name string) int32 {
	for s := range lw.c.slotRegs {
		if lw.c.slotName(int32(s)) == name {
			return int32(s)
		}
	}
	lw.byText = true
	return lw.newSlot(^lw.name(name))
}

// slotName returns the name of frame slot s.
func (c *CompiledKernel) slotName(s int32) string {
	if r := c.slotRegs[s]; r >= 0 {
		return c.regs[r]
	}
	return c.names[^c.slotRegs[s]]
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
		s = lw.newSlot(id)
	}
	lw.regSlot[id] = s + 1
	return s
}

// operand lowers source operand op, decoded as src.
func (lw *lowering) operand(op string, src *ptx.Src) ref {
	if len(op) == len(strings.TrimSpace(op)) {
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
	return ref{kind: refBad, val: int64(lw.name(op))}
}

// name stores a text for the compiled code to refer to by index.
func (lw *lowering) name(s string) int32 {
	lw.c.names = append(lw.c.names, s)
	return int32(len(lw.c.names) - 1)
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
	info := di.Op
	ci := cinst{pred: -1, dst: -1, target: -1, loop: -1}
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
				ci.name = lw.name(in.Operands[0])
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
	srcs := lw.d.Srcs(pc)
	operand := func(i int) ref { return lw.operand(src[i], &srcs[i]) }
	// bad returns the lazily-erroring form carrying the reference
	// interpreter's message for this instruction; the kernel name is
	// substituted at execution time, so the bytecode names no kernel.
	bad := func(msg string) cinst {
		ci.op = copBad
		ci.name = lw.name(msg)
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
				// Declared parameters bind by position, as
				// frame.bindParams binds the launch's values.
				ci.target = pos
			} else {
				ci.name = lw.name(name)
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
			ci.name = lw.name(info.Cmp)
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
		var al affineLoop
		if !c.analyzeSelfLoop(b.Start, b.End, &al) {
			continue
		}
		// The header is the target of the interpreted back branch, so
		// execution enters it: it is interpreted or starts a run.
		i := int32(len(c.loops))
		if e := c.at[b.Start]; e >= 0 {
			c.code[e].loop = i
		} else {
			c.runs[^e].loop = i
		}
		c.loops = append(c.loops, al)
	}
}

// analyzeSelfLoop decides whether the single-block loop [start, end) is
// affine and countable. The generated reduction loops all share one
// shape — the only interpreted instructions are the induction update
// (add/sub ind, ind, imm), the exit test (setp cmp p, ind, bound) and
// the guarded back branch — and that is exactly the shape accepted
// here; anything else falls back to per-iteration interpretation.
func (c *CompiledKernel) analyzeSelfLoop(start, end int, al *affineLoop) bool {
	var interp [3]int32 // the entries in code of the interpreted pcs
	ni := 0
	for pc := start; pc < end; pc++ {
		if e := c.at[pc]; e >= 0 {
			if ni == len(interp) {
				return false
			}
			interp[ni] = e
			ni++
		}
	}
	if ni != 3 || c.at[end-1] != interp[2] {
		return false
	}
	ad, sp, bra := &c.code[interp[0]], &c.code[interp[1]], &c.code[interp[2]]
	if bra.op != copBra || int(bra.target) != start || bra.pred < 0 {
		return false
	}
	// Induction update: unguarded ind = ind +/- constant.
	if ad.pred != -1 || ad.dst < 0 {
		return false
	}
	var step int64
	switch {
	case ad.op == copAdd && ad.a.kind == refSlot && ad.a.val == int64(ad.dst) && ad.b.kind == refImm:
		step = ad.b.val
	case ad.op == copSub && ad.a.kind == refSlot && ad.a.val == int64(ad.dst) && ad.b.kind == refImm:
		step = -ad.b.val
	default:
		return false
	}
	if step == 0 {
		return false
	}
	ind := ad.dst
	// Exit test: unguarded setp writing the branch guard, comparing the
	// induction variable against a loop-invariant bound. Only the add
	// and the setp write inside the block, so any other operand — an
	// immediate, a special register, or a slot that is neither ind nor
	// the guard — is invariant across iterations.
	if sp.op != copSetp || sp.pred != -1 || sp.dst != bra.pred || sp.dst == ind {
		return false
	}
	cmp := sp.cmp
	bound := sp.b
	if sp.a.kind != refSlot || sp.a.val != int64(ind) {
		if sp.b.kind != refSlot || sp.b.val != int64(ind) {
			return false
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
		return false
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
			return false
		}
	case cmpGT, cmpGE:
		if step > 0 {
			return false
		}
	default:
		return false
	}
	*al = affineLoop{
		start: int32(start), end: int32(end),
		ind: ind, pred: sp.dst, step: step, bound: bound, cmp: cmp,
		predNeg:       bra.predNeg,
		perIterSteps:  int64(end - start),
		perIterInterp: 3,
	}
	for _, cl := range c.class[start:end] {
		al.hist[cl]++
	}
	return true
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
