package dca

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"cnnperf/internal/ptx"
)

// The compiled engine executes one representative thread over the
// bytecode, instruction for instruction as the tests' tree-walking
// reference interpreter (ExecuteThread) would: the same counts, and on
// failure the same error text. The analysis runs it at most twice per
// launch — once for the in-bounds representative and, when the grid
// overcovers, once for the out-of-bounds one. Counted-only stretches are
// charged in O(classes) and affine loops in closed form, so the cost
// tracks the interpreted slice rather than the dynamic instruction
// count.

// frame is the reusable scratch state of compiled execution: one
// register file with its written bits, the launch's parameter values
// bound by declaration position, and the visit counters of the two
// representative threads. Buffers grow to the largest kernel run and
// are kept, so warm runs perform no heap allocations (TestZeroAlloc
// pins it). One frame serves one goroutine at a time.
type frame struct {
	regs    []int64
	written []bool
	pvals   []int64
	pok     []bool
	visits  [2][]int64
}

// fit returns s resized to n elements, reallocating only when its
// capacity is short. Retained contents are not cleared.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bind prepares the frame for one run of c on kernel k: every register
// reads as unwritten, and each declared parameter holds its launch
// value. Parameters bind by position so cached compiled kernels work
// across renamed-but-identical kernels.
func (fr *frame) bind(c *CompiledKernel, k *ptx.Kernel, params map[string]int64) {
	fr.regs = fit(fr.regs, c.slots) // reads gated by written
	fr.written = fit(fr.written, c.slots)
	clear(fr.written)
	fr.pvals = fit(fr.pvals, len(k.Params))
	fr.pok = fit(fr.pok, len(k.Params))
	for i, p := range k.Params {
		fr.pvals[i], fr.pok[i] = params[p.Name]
	}
}

// visitCounts returns representative i's zeroed visit counters, one per
// instruction of an n-instruction kernel.
func (fr *frame) visitCounts(i, n int) []int64 {
	fr.visits[i] = fit(fr.visits[i], n)
	clear(fr.visits[i])
	return fr.visits[i]
}

// engineRuns counts compiled executions process-wide.
var engineRuns atomic.Int64

// BatchExecStats is a snapshot of the compiled-engine counters.
type BatchExecStats struct {
	// Segments counts control-flow segments run: one per execution.
	Segments int64
	// LaneSegments sums threads over segments. Every execution runs
	// one thread, so LaneSegments/Segments is always 1.
	LaneSegments int64
}

// BatchStats snapshots the process-wide compiled-engine counters.
func BatchStats() BatchExecStats {
	n := engineRuns.Load()
	return BatchExecStats{Segments: n, LaneSegments: n}
}

// Execute runs one thread over the compiled bytecode and returns exactly
// what the reference interpreter returns for the same thread. It
// allocates a fresh frame; hot callers reuse one through execute.
func (c *CompiledKernel) Execute(k *ptx.Kernel, params map[string]int64, ctx ThreadCtx) (ExecResult, error) {
	return c.execute(k, params, ctx, &frame{}, nil)
}

// execute is Execute over a caller-owned frame. A non-nil visits
// (length len(code)) accumulates how many times each pc executed,
// including counted-but-not-interpreted stretches and closed-form loop
// iterations. With a warm frame the call performs no heap allocations
// on the success path.
func (c *CompiledKernel) execute(k *ptx.Kernel, params map[string]int64, ctx ThreadCtx, fr *frame, visits []int64) (ExecResult, error) {
	t := thread{c: c, k: k, params: params, ctx: ctx, fr: fr, visits: visits}
	err := t.run()
	return t.res, err
}

// thread is the transient state of one compiled execution; it lives on
// the caller's stack.
type thread struct {
	c      *CompiledKernel
	k      *ptx.Kernel
	params map[string]int64
	ctx    ThreadCtx
	fr     *frame
	visits []int64
	// trace, when non-nil, receives the class of every executed
	// instruction in execution order (TraceThread).
	trace *[]ptx.Class
	res   ExecResult
}

// run binds the frame and executes the thread to completion.
func (t *thread) run() error {
	engineRuns.Add(1)
	c, fr := t.c, t.fr
	fr.bind(c, t.k, t.params)
	n := int32(len(c.code))
	pc := int32(0)
	for pc < n {
		if t.res.Steps >= c.maxSteps {
			return stepLimitErr(t.k, c.maxSteps)
		}
		if al := c.loops[pc]; al != nil {
			switch trips := t.loopTrips(al); trips {
			case loopHitsLimit:
				return stepLimitErr(t.k, c.maxSteps)
			case loopInterpret:
			default:
				t.applyLoop(al, trips)
				pc = al.end
				continue
			}
		}
		// Skip-run: one O(classes) charge for the whole counted-only
		// stretch.
		if !c.interp[pc] {
			q := c.nextInterp[pc]
			run := int64(q - pc)
			if t.res.Steps+run > c.maxSteps {
				return stepLimitErr(t.k, c.maxSteps)
			}
			t.res.Steps += run
			lo := c.classPrefix[int(pc)*ptx.NumClasses:][:ptx.NumClasses]
			hi := c.classPrefix[int(q)*ptx.NumClasses:][:ptx.NumClasses]
			for cl := range t.res.PerClass {
				t.res.PerClass[cl] += hi[cl] - lo[cl]
			}
			t.countVisits(pc, q, 1)
			pc = q
			continue
		}
		ci := &c.code[pc]
		t.res.Steps++
		t.res.PerClass[c.class[pc]]++
		t.res.Interpreted++
		t.countVisits(pc, pc+1, 1)
		taken := true
		if ci.pred >= 0 {
			if !fr.written[ci.pred] {
				return fmt.Errorf("dca: kernel %q pc %d: predicate %s undefined", t.k.Name, pc, c.regNames[ci.pred])
			}
			taken = fr.regs[ci.pred] != 0
			if ci.predNeg {
				taken = !taken
			}
		}
		switch ci.op {
		case copBra:
			if !taken {
				pc++
				continue
			}
			if ci.target < 0 {
				_, terr := t.k.Target(ci.name)
				return fmt.Errorf("dca: %w", terr)
			}
			if ci.back {
				t.res.BackBranches++
			}
			pc = ci.target
			continue
		case copExit:
			// Like the reference: a predicated ret terminates the
			// thread whether or not the guard holds.
			return nil
		}
		if taken {
			if err := t.step(ci, pc); err != nil {
				return err
			}
		}
		pc++
	}
	return nil
}

// countVisits charges the executed pc range [pc, q) n times to the
// visit profile and the class trace, when there are any. Callers pass
// ranges in execution order; a closed-form loop passes its block with
// n iterations, which is exact because only single-block loops get a
// closed form.
func (t *thread) countVisits(pc, q int32, n int64) {
	if t.visits != nil {
		for i := pc; i < q; i++ {
			t.visits[i] += n
		}
	}
	if t.trace != nil {
		for ; n > 0; n-- {
			*t.trace = append(*t.trace, t.c.class[pc:q]...)
		}
	}
}

// eval resolves one operand reference.
func (t *thread) eval(r ref) (int64, bool) {
	switch r.kind {
	case refImm:
		return r.val, true
	case refSlot:
		return t.fr.regs[r.val], t.fr.written[r.val]
	case refTid:
		return t.ctx.Tid, true
	case refNTid:
		return t.ctx.NTid, true
	case refCtaID:
		return t.ctx.CtaID, true
	case refNCtaID:
		return t.ctx.NCtaID, true
	}
	return 0, false
}

// step executes one non-branch instruction whose guard holds, mirroring
// the reference interpreter's operand evaluation order and error text
// case for case.
func (t *thread) step(ci *cinst, pc int32) error {
	c, fr := t.c, t.fr
	var a, b, v int64
	var ok bool
	switch ci.op {
	case copMov, copNeg, copNot, copAbs:
		if v, ok = t.eval(ci.a); !ok {
			return c.evalErr(t.k, ci.a)
		}
		switch ci.op {
		case copNeg:
			v = -v
		case copNot:
			v = ^v
		case copAbs:
			if v < 0 {
				v = -v
			}
		}
	case copLdParam:
		if ci.target >= 0 {
			if int(ci.target) >= len(fr.pok) {
				return fmt.Errorf("dca: kernel %q pc %d: parameter position %d of %d", t.k.Name, pc, ci.target, len(fr.pok))
			}
			if !fr.pok[ci.target] {
				return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", t.k.Name, pc, t.k.Params[ci.target].Name)
			}
			v = fr.pvals[ci.target]
		} else if v, ok = t.params[ci.name]; !ok {
			return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", t.k.Name, pc, ci.name)
		}
	case copLdData:
		if !c.full {
			return fmt.Errorf("dca: kernel %q pc %d: data load %q inside control slice", t.k.Name, pc, t.k.Body[pc].Opcode)
		}
		v = 0
	case copNop:
		return nil
	case copAdd, copSub, copMul, copDiv, copRem, copMin, copMax, copAnd, copOr, copXor, copShl, copShr:
		if a, ok = t.eval(ci.a); !ok {
			return c.evalErr(t.k, ci.a)
		}
		if b, ok = t.eval(ci.b); !ok {
			return c.evalErr(t.k, ci.b)
		}
		var err error
		if v, err = binop(t.k, pc, ci.op, a, b); err != nil {
			return err
		}
	case copMad:
		if a, ok = t.eval(ci.a); !ok {
			return c.evalErr(t.k, ci.a)
		}
		if b, ok = t.eval(ci.b); !ok {
			return c.evalErr(t.k, ci.b)
		}
		if v, ok = t.eval(ci.c); !ok {
			return c.evalErr(t.k, ci.c)
		}
		v = a*b + v
	case copSetp:
		if a, ok = t.eval(ci.a); !ok {
			return c.evalErr(t.k, ci.a)
		}
		if b, ok = t.eval(ci.b); !ok {
			return c.evalErr(t.k, ci.b)
		}
		var err error
		if v, err = setp(t.k, pc, ci, a, b); err != nil {
			return err
		}
	case copSelp:
		if a, ok = t.eval(ci.a); !ok {
			return c.evalErr(t.k, ci.a)
		}
		if b, ok = t.eval(ci.b); !ok {
			return c.evalErr(t.k, ci.b)
		}
		if v, ok = t.eval(ci.c); !ok {
			return c.evalErr(t.k, ci.c)
		}
		if v != 0 {
			v = a
		} else {
			v = b
		}
	case copSfu:
		v = 0
	default: // copBad
		return errors.New(strings.Replace(ci.name, kernelPlaceholder, strconv.Quote(t.k.Name), 1))
	}
	fr.regs[ci.dst], fr.written[ci.dst] = v, true
	return nil
}

// binop evaluates one arithmetic/logic opcode with the reference
// interpreter's exact division/remainder error text.
func binop(k *ptx.Kernel, pc int32, op copKind, a, b int64) (int64, error) {
	switch op {
	case copAdd:
		return a + b, nil
	case copSub:
		return a - b, nil
	case copMul:
		return a * b, nil
	case copDiv:
		if b == 0 {
			return 0, fmt.Errorf("dca: kernel %q pc %d: division by zero", k.Name, pc)
		}
		return a / b, nil
	case copRem:
		if b == 0 {
			return 0, fmt.Errorf("dca: kernel %q pc %d: remainder by zero", k.Name, pc)
		}
		return a % b, nil
	case copMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case copMax:
		if a > b {
			return a, nil
		}
		return b, nil
	case copAnd:
		return a & b, nil
	case copOr:
		return a | b, nil
	case copXor:
		return a ^ b, nil
	case copShl:
		return a << uint(b&63), nil
	}
	return int64(uint64(a) >> uint(b&63)), nil // copShr
}

// setp evaluates one comparison with the reference interpreter's exact
// unknown-comparison error text.
func setp(k *ptx.Kernel, pc int32, ci *cinst, a, b int64) (int64, error) {
	var r bool
	switch ci.cmp {
	case cmpLT:
		r = a < b
	case cmpLE:
		r = a <= b
	case cmpGT:
		r = a > b
	case cmpGE:
		r = a >= b
	case cmpEQ:
		r = a == b
	case cmpNE:
		r = a != b
	default:
		return 0, fmt.Errorf("dca: kernel %q pc %d: unknown comparison %q", k.Name, pc, ci.name)
	}
	if r {
		return 1, nil
	}
	return 0, nil
}

// loopTrips outcomes below 1 are sentinels; trip counts are always >= 1.
const (
	loopInterpret int64 = 0  // entry state unresolvable: iterate normally
	loopHitsLimit int64 = -1 // closed form crosses MaxSteps: abort
)

// loopTrips resolves a closed-form loop's trip count at entry, or a
// sentinel. An unresolvable entry state falls back to interpretation,
// which reproduces the reference behavior including its errors and
// MaxSteps abort; a trip count whose closed form crosses MaxSteps means
// the reference would abort inside the loop.
func (t *thread) loopTrips(al *affineLoop) int64 {
	v0, ok := t.eval(ref{kind: refSlot, val: int64(al.ind)})
	if !ok {
		return loopInterpret
	}
	bound, ok := t.eval(al.bound)
	if !ok {
		return loopInterpret
	}
	n, ok := al.trips(v0, bound)
	if !ok {
		return loopInterpret
	}
	if n > (t.c.maxSteps-t.res.Steps)/al.perIterSteps {
		return loopHitsLimit
	}
	return n
}

// applyLoop charges n iterations of the loop in closed form and leaves
// the induction and exit-predicate registers as the last iteration
// would.
func (t *thread) applyLoop(al *affineLoop, n int64) {
	t.res.Steps += n * al.perIterSteps
	t.res.Interpreted += n * al.perIterInterp
	t.res.BackBranches += n - 1
	for cl := 0; cl < ptx.NumClasses; cl++ {
		t.res.PerClass[cl] += n * al.hist[cl]
	}
	t.countVisits(al.start, al.end, n)
	t.fr.regs[al.ind] += n * al.step
	exitPred := int64(0)
	if al.predNeg {
		exitPred = 1
	}
	t.fr.regs[al.pred], t.fr.written[al.pred] = exitPred, true
}

// evalErr reconstructs the reference interpreter's operand-resolution
// error for a failed ref.
func (c *CompiledKernel) evalErr(k *ptx.Kernel, r ref) error {
	switch r.kind {
	case refSlot:
		return fmt.Errorf("dca: register %s read before write", c.regNames[r.val])
	case refBad:
		op := c.badNames[r.val]
		if strings.HasPrefix(op, "0f") || strings.HasPrefix(op, "0F") {
			return fmt.Errorf("dca: bad float immediate %q", op)
		}
		return fmt.Errorf("dca: cannot evaluate operand %q", op)
	}
	return fmt.Errorf("dca: kernel %q: internal operand error", k.Name)
}

// stepLimitError is the runaway-execution abort: the thread would
// execute more than maxSteps instructions.
type stepLimitError struct {
	kernel   string
	maxSteps int64
}

func (e *stepLimitError) Error() string {
	return fmt.Sprintf("dca: kernel %q exceeded %d steps (infinite loop?)", e.kernel, e.maxSteps)
}

// stepLimitErr is the shared runaway-execution abort.
func stepLimitErr(k *ptx.Kernel, maxSteps int64) error {
	return &stepLimitError{kernel: k.Name, maxSteps: maxSteps}
}
