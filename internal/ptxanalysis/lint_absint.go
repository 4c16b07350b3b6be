package ptxanalysis

import (
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis/absint"
)

// The second-generation lint checks, PTXA009-PTXA014, derived from the
// abstract-interpretation facts. All of them are warning- or
// info-severity: they never feed the DCA gate, so enabling them cannot
// change which kernels the pipeline accepts.

// lintAbsint appends the dataflow-derived diagnostics of one kernel.
func (p *kernelPasses) lintAbsint(add func(sev Severity, line int, code, format string, args ...any)) {
	k, abs := p.d.Kernel, p.abs

	// PTXA009: a branch whose guard the value analysis decides — the
	// condition is constant for every parameter and thread assignment.
	for _, br := range abs.Branch {
		if !br.Const {
			continue
		}
		dir := "never"
		if br.Taken {
			dir = "always"
		}
		add(SevWarning, br.Line, CodeConstBranch,
			"branch guard %s is provably constant: the branch is %s taken", k.Body[br.Line].Pred, dir)
	}

	// PTXA010: a global access with a proven per-thread stride at or
	// past a full 32-byte sector — every lane of a warp pays its own
	// memory transaction. PTXA014: a shared access whose stride lands
	// multiple lanes on one bank.
	for _, acc := range abs.Accesses {
		switch acc.Space {
		case absint.SpaceGlobal:
			s := acc.StrideBytes
			if s < 0 {
				s = -s
			}
			if acc.Class == absint.CoalStrided && s >= absint.UncoalescedStrideBytes {
				add(SevWarning, acc.Line, CodeUncoalescedAccess,
					"global access stride is %d bytes per thread (>= %d): provably uncoalesced",
					acc.StrideBytes, absint.UncoalescedStrideBytes)
			}
		case absint.SpaceShared:
			if acc.ConflictWays >= 2 {
				add(SevWarning, acc.Line, CodeBankConflict,
					"shared-memory access stride of %d bytes per thread causes a %d-way bank conflict",
					acc.StrideBytes, acc.ConflictWays)
			}
		}
	}

	// PTXA011: a barrier control-dependent on a thread-dependent
	// branch — threads of one block can disagree on reaching it, the
	// classic data-dependent-divergence hang. (PTXA005 flags the
	// structural form; this one proves the controlling condition is
	// actually thread-dependent.)
	for i := range p.d.Insts {
		if !p.d.Insts[i].Op.Barrier {
			continue
		}
		bb := p.g.BlockOf(i)
		for ci, br := range abs.Branch {
			if br.Class != absint.BranchDivergent {
				continue
			}
			if p.postDom.Dominates(bb, ci) {
				continue // the barrier is reached whichever way ci goes
			}
			ctrl := false
			for _, s := range p.g.Blocks[ci].Succs {
				if p.postDom.Dominates(bb, s) {
					ctrl = true
					break
				}
			}
			if ctrl {
				add(SevWarning, i, CodeDivergentBarrier,
					"%s is control-dependent on the thread-dependent branch at line %d (divergence hang hazard)",
					k.Body[i].Opcode, br.Line)
				break // one finding per barrier
			}
		}
	}

	// PTXA012: an unguarded load inside a natural loop whose address
	// register is never written in the loop — the same location is
	// re-read every iteration and the load is hoistable. A load inside
	// nested loops is reported once.
	flagged := make(map[int]bool)
	definedInLoop := make(RegSet, (len(p.d.Regs)+63)/64)
	for _, l := range p.loops {
		clear(definedInLoop)
		for _, bi := range l.Blocks {
			b := p.g.Blocks[bi]
			for i := b.Start; i < b.End; i++ {
				if d := p.d.Insts[i].Dest; d >= 0 {
					definedInLoop.add(d)
				}
			}
		}
		for _, bi := range l.Blocks {
			b := p.g.Blocks[bi]
			for i := b.Start; i < b.End; i++ {
				in := &p.d.Insts[i]
				c := in.Op.Class
				if (c != ptx.ClassLoad && c != ptx.ClassLoadShared) || in.Guard >= 0 {
					continue
				}
				if absint.AccessSpaceOf(k.Body[i].Opcode) == absint.SpaceParam {
					continue
				}
				r := in.Addr
				if r < 0 || definedInLoop.Has(r) || flagged[i] {
					continue
				}
				flagged[i] = true
				add(SevInfo, i, CodeLoopInvariantLoad,
					"load address %s is invariant in the loop at depth %d: the load is hoistable", p.d.Regs[r], l.Depth)
			}
		}
	}

	// PTXA013: a block every structural path can reach but no value
	// assignment does — the constant-guard pruning of the abstract
	// interpreter proved all its incoming edges infeasible.
	reach := p.g.Reachable()
	for bi, structurally := range reach {
		if structurally && !abs.Reached[bi] {
			add(SevWarning, p.g.Blocks[bi].Start, CodeUnreachableByValue,
				"basic block %d (instructions %d-%d) is unreachable for every parameter and thread assignment",
				bi, p.g.Blocks[bi].Start, p.g.Blocks[bi].End-1)
		}
	}
}
