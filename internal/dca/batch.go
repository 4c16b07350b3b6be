package dca

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cnnperf/internal/ptx"
)

// The batched engine executes many representative threads of one kernel
// launch at once, warp-style: lanes that share a control-flow class —
// identical branch outcomes and identical closed-form loop keys — run
// under a single fetch-decode, with one shared ExecResult per batch.
// Register slots the compiler proves uniform across lanes (computeLayout)
// live in a small per-batch frame and execute once per batch; varying
// slots live in struct-of-arrays lane arrays indexed [loc*lanes + lane].
// A divergent branch or an unequal loop trip count splits the batch:
// the continuing group keeps the batch state, the deferred group is
// pushed onto a worklist with a copy of the uniform frame and counters.
// Every lane's result and error are, instruction for instruction,
// exactly what the reference interpreter (ExecuteThread) produces — the
// differential and property tests enforce byte-level agreement.

// LaneResult is one lane's outcome of a batched execution: the same
// (ExecResult, error) pair ExecuteThread returns for that lane's
// ThreadCtx.
type LaneResult struct {
	Res ExecResult
	Err error
}

// ExecuteBatch runs one thread per ThreadCtx over the compiled bytecode
// and returns per-lane results identical to len(ctxs) ExecuteThread
// calls.
// Lanes are grouped by (NTid, NCtaID) up front and regrouped on control
// divergence, so threads sharing a control-flow class pay for one
// fetch-decode between them. The call allocates a fresh arena; hot
// callers thread a reusable arena through executeBatch instead.
func (c *CompiledKernel) ExecuteBatch(k *ptx.Kernel, params map[string]int64, ctxs []ThreadCtx) []LaneResult {
	out := make([]LaneResult, len(ctxs))
	c.executeBatch(k, params, ctxs, nil, newExecArena(), out)
	return out
}

// batch is one control-flow class in flight: the lanes still in it, the
// shared program counter and counters, and the per-batch uniform
// register frame. Splits copy the uniform state; varying state lives in
// global per-lane arrays and never moves.
type batch struct {
	lanes    []int32
	pc       int32
	res      ExecResult
	uframe   []int64
	uwritten []bool
}

// batchExec is the transient state of one executeBatch call. All slices
// are carved from the caller's arena; the struct itself lives on the
// stack.
type batchExec struct {
	c      *CompiledKernel
	k      *ptx.Kernel
	params map[string]int64
	ctxs   []ThreadCtx
	pvals  []int64
	pok    []bool
	nl     int
	// vframe/vwritten are the struct-of-arrays varying-slot storage,
	// indexed [slotLoc*nl + lane].
	vframe   []int64
	vwritten []bool
	visits   [][]int64
	hasVis   bool
	out      []LaneResult
	ar       *execArena
	scratch  []int32
	keys     []int64
	stack    []batch
	sp       int
}

// executeBatch is ExecuteBatch over a caller-owned arena, optional
// per-lane visit profiles, and a caller-owned result slice. A non-nil
// visits[lane] (length len(code)) accumulates how many times each pc
// executed for that lane, including counted-but-not-interpreted
// stretches and closed-form loop iterations. After arena warm-up the call performs no
// heap allocations on the success path.
func (c *CompiledKernel) executeBatch(k *ptx.Kernel, params map[string]int64, ctxs []ThreadCtx, visits [][]int64, ar *execArena, out []LaneResult) {
	nl := len(ctxs)
	if nl == 0 {
		return
	}
	observeBatch(nl)
	bx := batchExec{
		c: c, k: k, params: params, ctxs: ctxs,
		nl:       nl,
		vframe:   ar.i64.takeRaw(c.nvslots * nl), // reads gated by vwritten
		vwritten: ar.bit.take(c.nvslots * nl),
		visits:   visits,
		out:      out,
		ar:       ar,
		scratch:  ar.i32.takeRaw(nl),
		keys:     ar.i64.takeRaw(nl),
		stack:    ar.bat.takeRaw(nl),
	}
	for _, v := range visits {
		if v != nil {
			bx.hasVis = true
			break
		}
	}
	// Declared parameters bind by position so cached compiled kernels
	// work across renamed-but-identical kernels. Both arrays are fully
	// written here, so neither needs a zeroed take.
	bx.pvals = ar.i64.takeRaw(len(k.Params))
	bx.pok = ar.bit.takeRaw(len(k.Params))
	for i, p := range k.Params {
		v, ok := params[p.Name]
		bx.pvals[i], bx.pok[i] = v, ok
	}
	// Initial batching: lanes agreeing on (NTid, NCtaID) share a batch,
	// making %ntid.x/%nctaid.x uniform within every batch. Grouping is
	// stable in lane order; analysis launches pass lanes that agree, so
	// the common case is one batch.
	laneStore := bx.ar.i32.takeRaw(nl)
	grouped := bx.ar.bit.take(nl)
	pos := 0
	for i := 0; i < nl; i++ {
		if grouped[i] {
			continue
		}
		start := pos
		for j := i; j < nl; j++ {
			if !grouped[j] && ctxs[j].NTid == ctxs[i].NTid && ctxs[j].NCtaID == ctxs[i].NCtaID {
				grouped[j] = true
				laneStore[pos] = int32(j)
				pos++
			}
		}
		bx.stack[bx.sp] = batch{
			lanes:    laneStore[start:pos],
			uframe:   ar.i64.takeRaw(c.nuslots), // reads gated by uwritten
			uwritten: ar.bit.take(c.nuslots),
		}
		bx.sp++
	}
	for bx.sp > 0 {
		bx.sp--
		b := bx.stack[bx.sp]
		bx.run(&b)
	}
}

// push defers a batch to the worklist. Capacity never overflows: live
// batches hold disjoint non-empty lane sets, so at most nl exist.
func (bx *batchExec) push(b batch) {
	bx.stack[bx.sp] = b
	bx.sp++
}

// finishAll ends every remaining lane of the batch with the shared
// result and error (nil for a clean exit). Field-at-a-time assignment
// keeps the compiler from zeroing and copying a LaneResult temporary
// per lane — with its embedded ClassHist the struct is large enough
// that the redundant duffzero shows up in profiles.
func (bx *batchExec) finishAll(b *batch, err error) {
	out := bx.out
	for _, ln := range b.lanes {
		out[ln].Res = b.res
		out[ln].Err = err
	}
	b.lanes = b.lanes[:0]
}

// predUndefErr mirrors the reference interpreter's undefined-guard error.
func (bx *batchExec) predUndefErr(pc, slot int32) error {
	return fmt.Errorf("dca: kernel %q pc %d: predicate %s undefined", bx.k.Name, pc, bx.c.regNames[slot])
}

// readSlot resolves a register slot for one lane, routing uniform slots
// to the batch frame and varying slots to the lane arrays.
func (bx *batchExec) readSlot(b *batch, slot, lane int32) (int64, bool) {
	loc := bx.c.slotLoc[slot]
	if bx.c.varying[slot] {
		i := int(loc)*bx.nl + int(lane)
		if !bx.vwritten[i] {
			return 0, false
		}
		return bx.vframe[i], true
	}
	if !b.uwritten[loc] {
		return 0, false
	}
	return b.uframe[loc], true
}

// storeSlot writes a register slot for one lane.
func (bx *batchExec) storeSlot(b *batch, slot, lane int32, v int64) {
	loc := bx.c.slotLoc[slot]
	if bx.c.varying[slot] {
		i := int(loc)*bx.nl + int(lane)
		bx.vframe[i], bx.vwritten[i] = v, true
		return
	}
	b.uframe[loc], b.uwritten[loc] = v, true
}

// evalL resolves one operand reference for one lane.
func (bx *batchExec) evalL(b *batch, r ref, lane int32) (int64, bool) {
	switch r.kind {
	case refImm:
		return r.val, true
	case refSlot:
		return bx.readSlot(b, int32(r.val), lane)
	case refTid:
		return bx.ctxs[lane].Tid, true
	case refNTid:
		return bx.ctxs[lane].NTid, true
	case refCtaID:
		return bx.ctxs[lane].CtaID, true
	case refNCtaID:
		return bx.ctxs[lane].NCtaID, true
	}
	return 0, false
}

// evalU resolves one operand reference of a scalar instruction at the
// batch level. computeLayout guarantees scalar instructions carry no
// per-lane sources, so reading lane 0's special registers is exact.
func (bx *batchExec) evalU(b *batch, r ref) (int64, bool) {
	if r.kind == refSlot {
		loc := bx.c.slotLoc[r.val]
		if !b.uwritten[loc] {
			return 0, false
		}
		return b.uframe[loc], true
	}
	return bx.evalL(b, r, b.lanes[0])
}

// countVisits charges one executed pc range [pc, q) to every profiled
// lane of the batch, n times.
func (bx *batchExec) countVisits(b *batch, pc, q int32, n int64) {
	for _, ln := range b.lanes {
		if v := bx.visits[ln]; v != nil {
			for i := pc; i < q; i++ {
				v[i] += n
			}
		}
	}
}

// run executes one batch to completion, splitting on divergence; split
// remainders go to the worklist and run later.
func (bx *batchExec) run(b *batch) {
	c := bx.c
	n := int32(len(c.code))
	batchSegments.Add(1)
	batchLaneSegs.Add(int64(len(b.lanes)))
	for {
		if len(b.lanes) == 0 {
			return
		}
		pc := b.pc
		if pc >= n {
			bx.finishAll(b, nil)
			return
		}
		if b.res.Steps >= c.maxSteps {
			bx.finishAll(b, stepLimitErr(bx.k, c.maxSteps))
			return
		}
		// Closed-form loop accounting, batched: lanes agreeing on the
		// loop's outcome key — the trip count, "iterate", or "limit" —
		// stay together; disagreeing lanes split off and re-enter here.
		if al := c.loops[pc]; al != nil {
			switch bx.runLoopBatch(b, al) {
			case loopApplied:
				b.pc = al.end
				continue
			case loopSplit:
				continue // b narrowed to one key group; re-evaluate
			case loopFinished:
				return
			}
			// loopIterate: interpret the loop normally.
		}
		// Skip-run: one O(classes) charge per batch, however many lanes.
		if !c.interp[pc] {
			q := c.nextInterp[pc]
			run := int64(q - pc)
			if b.res.Steps+run > c.maxSteps {
				bx.finishAll(b, stepLimitErr(bx.k, c.maxSteps))
				return
			}
			b.res.Steps += run
			base, top := int(pc)*ptx.NumClasses, int(q)*ptx.NumClasses
			for cl := 0; cl < ptx.NumClasses; cl++ {
				b.res.PerClass[cl] += c.classPrefix[top+cl] - c.classPrefix[base+cl]
			}
			if bx.hasVis {
				bx.countVisits(b, pc, q, 1)
			}
			b.pc = q
			continue
		}
		ci := &c.code[pc]
		b.res.Steps++
		b.res.PerClass[c.class[pc]]++
		b.res.Interpreted++
		if bx.hasVis {
			bx.countVisits(b, pc, pc+1, 1)
		}
		if c.scalar[pc] {
			// Uniform guard: one evaluation decides every lane.
			taken := true
			if ci.pred >= 0 {
				loc := c.slotLoc[ci.pred]
				if !b.uwritten[loc] {
					bx.finishAll(b, bx.predUndefErr(pc, ci.pred))
					return
				}
				taken = b.uframe[loc] != 0
				if ci.predNeg {
					taken = !taken
				}
			}
			switch ci.op {
			case copBra:
				if taken {
					if ci.target < 0 {
						_, terr := bx.k.Target(ci.name)
						bx.finishAll(b, fmt.Errorf("dca: %w", terr))
						return
					}
					if ci.back {
						b.res.BackBranches++
					}
					b.pc = ci.target
				} else {
					b.pc++
				}
				continue
			case copExit:
				// Like the reference: a predicated ret terminates
				// the thread whether or not the guard holds.
				bx.finishAll(b, nil)
				return
			}
			if taken {
				if err := bx.scalarStep(b, ci, pc); err != nil {
					bx.finishAll(b, err)
					return
				}
			}
			b.pc++
			continue
		}
		// Varying guard or destination: per-lane execution. Branches
		// partition the batch; other opcodes run lane by lane, and a
		// faulting lane leaves the batch with the shared counters.
		switch ci.op {
		case copBra:
			bx.vectorBranch(b, ci, pc)
			if len(b.lanes) == 0 {
				return
			}
			continue
		case copExit:
			bx.vectorExit(b, ci, pc)
			return
		}
		bx.vectorStep(b, ci, pc)
		if len(b.lanes) == 0 {
			return
		}
		b.pc++
	}
}

// scalarStep executes one uniform non-branch instruction once for the
// whole batch, writing the per-batch uniform frame. Any error is shared
// by every lane — exactly what len(lanes) reference runs would each
// report.
func (bx *batchExec) scalarStep(b *batch, ci *cinst, pc int32) error {
	c := bx.c
	var a, bv, v int64
	var ok bool
	switch ci.op {
	case copMov, copNeg, copNot, copAbs:
		if v, ok = bx.evalU(b, ci.a); !ok {
			return c.evalErr(bx.k, ci.a)
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
			if int(ci.target) >= len(bx.pok) {
				return fmt.Errorf("dca: kernel %q pc %d: parameter position %d of %d", bx.k.Name, pc, ci.target, len(bx.pok))
			}
			if !bx.pok[ci.target] {
				return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", bx.k.Name, pc, bx.k.Params[ci.target].Name)
			}
			v = bx.pvals[ci.target]
		} else if v, ok = bx.params[ci.name]; !ok {
			return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", bx.k.Name, pc, ci.name)
		}
	case copLdData:
		if !c.full {
			return fmt.Errorf("dca: kernel %q pc %d: data load %q inside control slice", bx.k.Name, pc, bx.k.Body[pc].Opcode)
		}
		v = 0
	case copNop:
		return nil
	case copAdd, copSub, copMul, copDiv, copRem, copMin, copMax, copAnd, copOr, copXor, copShl, copShr:
		if a, ok = bx.evalU(b, ci.a); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalU(b, ci.b); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		var err error
		if v, err = binop(bx.k, pc, ci.op, a, bv); err != nil {
			return err
		}
	case copMad:
		if a, ok = bx.evalU(b, ci.a); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalU(b, ci.b); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		if v, ok = bx.evalU(b, ci.c); !ok {
			return c.evalErr(bx.k, ci.c)
		}
		v = a*bv + v
	case copSetp:
		if a, ok = bx.evalU(b, ci.a); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalU(b, ci.b); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		var err error
		if v, err = setp(bx.k, pc, ci, a, bv); err != nil {
			return err
		}
	case copSelp:
		if a, ok = bx.evalU(b, ci.a); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalU(b, ci.b); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		if v, ok = bx.evalU(b, ci.c); !ok {
			return c.evalErr(bx.k, ci.c)
		}
		if v != 0 {
			v = a
		} else {
			v = bv
		}
	case copSfu:
		v = 0
	default: // copBad
		return errors.New(strings.Replace(ci.name, kernelPlaceholder, strconv.Quote(bx.k.Name), 1))
	}
	loc := c.slotLoc[ci.dst]
	b.uframe[loc], b.uwritten[loc] = v, true
	return nil
}

// vectorStep executes one varying non-branch instruction lane by lane.
// Faulting lanes are recorded and compacted out of the batch in place.
func (bx *batchExec) vectorStep(b *batch, ci *cinst, pc int32) {
	lanes := b.lanes
	w := 0
	for _, ln := range lanes {
		if err := bx.laneStep(b, ci, pc, ln); err != nil {
			bx.out[ln].Res = b.res
			bx.out[ln].Err = err
			continue
		}
		lanes[w] = ln
		w++
	}
	b.lanes = lanes[:w]
}

// laneStep executes one varying instruction for one lane, mirroring the
// reference interpreter's guard-then-operands evaluation order and error
// text case for case.
func (bx *batchExec) laneStep(b *batch, ci *cinst, pc, ln int32) error {
	c := bx.c
	if ci.pred >= 0 {
		pv, ok := bx.readSlot(b, ci.pred, ln)
		if !ok {
			return bx.predUndefErr(pc, ci.pred)
		}
		taken := pv != 0
		if ci.predNeg {
			taken = !taken
		}
		if !taken {
			return nil
		}
	}
	var a, bv, v int64
	var ok bool
	switch ci.op {
	case copMov, copNeg, copNot, copAbs:
		if v, ok = bx.evalL(b, ci.a, ln); !ok {
			return c.evalErr(bx.k, ci.a)
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
			if int(ci.target) >= len(bx.pok) {
				return fmt.Errorf("dca: kernel %q pc %d: parameter position %d of %d", bx.k.Name, pc, ci.target, len(bx.pok))
			}
			if !bx.pok[ci.target] {
				return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", bx.k.Name, pc, bx.k.Params[ci.target].Name)
			}
			v = bx.pvals[ci.target]
		} else if v, ok = bx.params[ci.name]; !ok {
			return fmt.Errorf("dca: kernel %q pc %d: no value for parameter %q", bx.k.Name, pc, ci.name)
		}
	case copLdData:
		if !c.full {
			return fmt.Errorf("dca: kernel %q pc %d: data load %q inside control slice", bx.k.Name, pc, bx.k.Body[pc].Opcode)
		}
		v = 0
	case copNop:
		return nil
	case copAdd, copSub, copMul, copDiv, copRem, copMin, copMax, copAnd, copOr, copXor, copShl, copShr:
		if a, ok = bx.evalL(b, ci.a, ln); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalL(b, ci.b, ln); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		var err error
		if v, err = binop(bx.k, pc, ci.op, a, bv); err != nil {
			return err
		}
	case copMad:
		if a, ok = bx.evalL(b, ci.a, ln); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalL(b, ci.b, ln); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		if v, ok = bx.evalL(b, ci.c, ln); !ok {
			return c.evalErr(bx.k, ci.c)
		}
		v = a*bv + v
	case copSetp:
		if a, ok = bx.evalL(b, ci.a, ln); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalL(b, ci.b, ln); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		var err error
		if v, err = setp(bx.k, pc, ci, a, bv); err != nil {
			return err
		}
	case copSelp:
		if a, ok = bx.evalL(b, ci.a, ln); !ok {
			return c.evalErr(bx.k, ci.a)
		}
		if bv, ok = bx.evalL(b, ci.b, ln); !ok {
			return c.evalErr(bx.k, ci.b)
		}
		if v, ok = bx.evalL(b, ci.c, ln); !ok {
			return c.evalErr(bx.k, ci.c)
		}
		if v != 0 {
			v = a
		} else {
			v = bv
		}
	case copSfu:
		v = 0
	default: // copBad
		return errors.New(strings.Replace(ci.name, kernelPlaceholder, strconv.Quote(bx.k.Name), 1))
	}
	bx.storeSlot(b, ci.dst, ln, v)
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

// vectorBranch partitions the batch on a varying guard. Lanes with an
// unwritten guard fault out; taken lanes continue at the target with
// the batch state, untaken lanes (when both groups are non-empty) defer
// to the worklist at pc+1 with copies of the uniform frame and
// counters. The partition is stable in lane order on both sides.
func (bx *batchExec) vectorBranch(b *batch, ci *cinst, pc int32) {
	c := bx.c
	lanes := b.lanes
	nt, nu := 0, 0
	for _, ln := range lanes {
		pv, ok := bx.readSlot(b, ci.pred, ln)
		if !ok {
			bx.out[ln].Res = b.res
			bx.out[ln].Err = bx.predUndefErr(pc, ci.pred)
			continue
		}
		taken := pv != 0
		if ci.predNeg {
			taken = !taken
		}
		if taken {
			lanes[nt] = ln
			nt++
		} else {
			bx.scratch[nu] = ln
			nu++
		}
	}
	copy(lanes[nt:nt+nu], bx.scratch[:nu])
	if nt > 0 && nu > 0 {
		nb := batch{
			lanes: lanes[nt : nt+nu], pc: pc + 1, res: b.res,
			uframe:   bx.ar.i64.takeRaw(c.nuslots), // fully copied below
			uwritten: bx.ar.bit.takeRaw(c.nuslots),
		}
		copy(nb.uframe, b.uframe)
		copy(nb.uwritten, b.uwritten)
		bx.push(nb)
		batchSplits.Add(1)
	}
	switch {
	case nt > 0:
		b.lanes = lanes[:nt]
		if ci.target < 0 {
			_, terr := bx.k.Target(ci.name)
			bx.finishAll(b, fmt.Errorf("dca: %w", terr))
			return
		}
		if ci.back {
			b.res.BackBranches++
		}
		b.pc = ci.target
	case nu > 0:
		b.lanes = lanes[:nu]
		b.pc = pc + 1
	default:
		b.lanes = lanes[:0]
	}
}

// vectorExit ends every lane at a ret with a varying guard: the guard's
// definedness is checked per lane (the exit itself ignores its value,
// like the reference interpreter).
func (bx *batchExec) vectorExit(b *batch, ci *cinst, pc int32) {
	out := bx.out
	for _, ln := range b.lanes {
		if _, ok := bx.readSlot(b, ci.pred, ln); !ok {
			out[ln].Res = b.res
			out[ln].Err = bx.predUndefErr(pc, ci.pred)
			continue
		}
		out[ln].Res = b.res
		out[ln].Err = nil
	}
	b.lanes = b.lanes[:0]
}

// Closed-form loop outcomes for one batch.
type loopOutcome uint8

const (
	loopIterate  loopOutcome = iota // interpret the loop normally
	loopApplied                     // closed form charged; jump to al.end
	loopSplit                       // batch narrowed to one key group
	loopFinished                    // every lane ended (step limit)
)

// Per-lane loop keys below 1 are sentinels; trip counts are always >= 1.
const (
	loopKeyIterate int64 = -1 // entry state unresolvable: interpret
	loopKeyLimit   int64 = -2 // closed form crosses MaxSteps: abort
)

// loopKey resolves one lane's closed-form outcome: the trip count, or a
// sentinel for "interpret normally" / "step-limit abort". An
// unresolvable entry state falls back to interpretation, which
// reproduces the reference behavior including its errors and MaxSteps
// abort; a trip count whose closed form crosses MaxSteps means the
// reference would abort inside the loop.
func (bx *batchExec) loopKey(b *batch, al *affineLoop, ln int32) int64 {
	v0, ok := bx.readSlot(b, al.ind, ln)
	if !ok {
		return loopKeyIterate
	}
	var bound int64
	switch al.bound.kind {
	case refImm:
		bound = al.bound.val
	case refSlot:
		if bound, ok = bx.readSlot(b, int32(al.bound.val), ln); !ok {
			return loopKeyIterate
		}
	case refTid:
		bound = bx.ctxs[ln].Tid
	case refNTid:
		bound = bx.ctxs[ln].NTid
	case refCtaID:
		bound = bx.ctxs[ln].CtaID
	case refNCtaID:
		bound = bx.ctxs[ln].NCtaID
	default:
		return loopKeyIterate
	}
	n, ok := al.trips(v0, bound)
	if !ok {
		return loopKeyIterate
	}
	remaining := bx.c.maxSteps - b.res.Steps
	if n > remaining/al.perIterSteps {
		return loopKeyLimit
	}
	return n
}

// runLoopBatch applies a closed-form loop to the batch. Lanes agreeing
// on the loop key are handled together: a shared trip count charges the
// counters once and advances the induction state (per lane when the
// induction slot varies); disagreeing lanes split off by key group.
func (bx *batchExec) runLoopBatch(b *batch, al *affineLoop) loopOutcome {
	c := bx.c
	lanes := b.lanes
	// Fast path: a loop whose entry state is provably uniform has one
	// key for the whole batch — resolve it once.
	uniform := !c.varying[al.ind] &&
		!(al.bound.kind == refTid || al.bound.kind == refCtaID ||
			(al.bound.kind == refSlot && c.varying[al.bound.val]))
	k0 := bx.loopKey(b, al, lanes[0])
	if !uniform {
		// Resolve every lane's key once, caching them for the partition
		// pass below so a split doesn't re-derive trip counts.
		keys := bx.keys
		keys[0] = k0
		same := true
		for i, ln := range lanes[1:] {
			kl := bx.loopKey(b, al, ln)
			keys[i+1] = kl
			if kl != k0 {
				same = false
			}
		}
		if !same {
			// Split off the first key group; the rest re-enters at the
			// same pc and regroups on its own keys.
			w, nu := 0, 0
			for i, ln := range lanes {
				if keys[i] == k0 {
					lanes[w] = ln
					w++
				} else {
					bx.scratch[nu] = ln
					nu++
				}
			}
			copy(lanes[w:w+nu], bx.scratch[:nu])
			nb := batch{
				lanes: lanes[w : w+nu], pc: b.pc, res: b.res,
				uframe:   bx.ar.i64.takeRaw(c.nuslots), // fully copied below
				uwritten: bx.ar.bit.takeRaw(c.nuslots),
			}
			copy(nb.uframe, b.uframe)
			copy(nb.uwritten, b.uwritten)
			bx.push(nb)
			batchSplits.Add(1)
			b.lanes = lanes[:w]
			return loopSplit
		}
	}
	switch k0 {
	case loopKeyIterate:
		return loopIterate
	case loopKeyLimit:
		bx.finishAll(b, stepLimitErr(bx.k, c.maxSteps))
		return loopFinished
	}
	n := k0
	b.res.Steps += n * al.perIterSteps
	b.res.Interpreted += n * al.perIterInterp
	b.res.BackBranches += n - 1
	for cl := 0; cl < ptx.NumClasses; cl++ {
		b.res.PerClass[cl] += n * al.hist[cl]
	}
	if bx.hasVis {
		bx.countVisits(b, al.start, al.end, n)
	}
	if c.varying[al.ind] {
		base := int(c.slotLoc[al.ind]) * bx.nl
		for _, ln := range b.lanes {
			bx.vframe[base+int(ln)] += n * al.step
		}
	} else {
		b.uframe[c.slotLoc[al.ind]] += n * al.step
	}
	exitPred := int64(0)
	if al.predNeg {
		exitPred = 1
	}
	if c.varying[al.pred] {
		base := int(c.slotLoc[al.pred]) * bx.nl
		for _, ln := range b.lanes {
			i := base + int(ln)
			bx.vframe[i], bx.vwritten[i] = exitPred, true
		}
	} else {
		loc := c.slotLoc[al.pred]
		b.uframe[loc], b.uwritten[loc] = exitPred, true
	}
	return loopApplied
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

// stepLimitErr is the shared runaway-execution abort.
func stepLimitErr(k *ptx.Kernel, maxSteps int64) error {
	return fmt.Errorf("dca: kernel %q exceeded %d steps (infinite loop?)", k.Name, maxSteps)
}
