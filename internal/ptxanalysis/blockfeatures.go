package ptxanalysis

import (
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis/absint"
)

// BlockFeatures is the static feature vector of one basic block: the
// instruction mix, the divergence class of its terminating branch, the
// coalescing classes of its memory accesses and the live-register
// pressure at its entry. Joined with per-block execution counts from
// the dynamic code analysis, these aggregate into the kernel-level
// BB features behind core.Config.BBFeatures (the BB-ML direction of
// arXiv 2202.07798; see DESIGN.md §11).
type BlockFeatures struct {
	// Block is the CFG block index; the body range is [Start, End).
	Block, Start, End int
	// Instructions is End - Start.
	Instructions int
	// PerClass counts the block's instructions per execution class.
	PerClass [ptx.NumClasses]int
	// Branch is the divergence class of the terminating guarded branch
	// (BranchNone when the block falls through or branches unguarded).
	Branch absint.BranchClass
	// GlobalAccesses counts global-space loads and stores, split by
	// coalescing class: Coalesced (uniform or unit-stride), Strided
	// (known stride beyond the element size) and Unknown.
	GlobalAccesses, CoalescedGlobal, StridedGlobal, UnknownGlobal int
	// SharedAccesses counts shared-space accesses; ConflictedShared the
	// subset with a provable bank conflict (>= 2-way).
	SharedAccesses, ConflictedShared int
	// SumAbsStrideBytes accumulates |stride| over the known-stride
	// global accesses (so means can be execution-weighted later).
	SumAbsStrideBytes int64
	// KnownStrideGlobal counts the accesses behind SumAbsStrideBytes.
	KnownStrideGlobal int
	// LiveIn is the number of registers live on entry.
	LiveIn int
	// Reached is false for blocks the abstract interpreter proves
	// unreachable for every parameter and thread assignment.
	Reached bool
}

// computeBlockFeatures joins the CFG, the liveness solution and the
// abstract-interpretation facts into one feature record per block.
func computeBlockFeatures(p *kernelPasses) []BlockFeatures {
	abs := p.abs
	out := make([]BlockFeatures, len(p.g.Blocks))
	for bi, b := range p.g.Blocks {
		bf := &out[bi]
		bf.Block, bf.Start, bf.End = bi, b.Start, b.End
		bf.Instructions = b.End - b.Start
		for i := b.Start; i < b.End; i++ {
			bf.PerClass[p.d.Insts[i].Op.Class]++
		}
		bf.Branch = abs.Branch[bi].Class
		bf.LiveIn = p.live.LiveIn[bi].Len()
		bf.Reached = abs.Reached[bi]
	}
	for _, acc := range abs.Accesses {
		bf := &out[acc.Block]
		switch acc.Space {
		case absint.SpaceGlobal:
			bf.GlobalAccesses++
			switch acc.Class {
			case absint.CoalUniform, absint.CoalCoalesced:
				bf.CoalescedGlobal++
			case absint.CoalStrided:
				bf.StridedGlobal++
			default:
				bf.UnknownGlobal++
			}
			if acc.StrideKnown {
				s := acc.StrideBytes
				if s < 0 {
					s = -s
				}
				bf.SumAbsStrideBytes += s
				bf.KnownStrideGlobal++
			}
		case absint.SpaceShared:
			bf.SharedAccesses++
			if acc.ConflictWays >= 2 {
				bf.ConflictedShared++
			}
		}
	}
	return out
}
