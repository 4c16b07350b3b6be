package dca

import "cnnperf/internal/ptx"

// ThreadCtx fixes the special-register values for one representative
// thread of a launch.
type ThreadCtx struct {
	// CtaID is %ctaid.x.
	CtaID int64
	// Tid is %tid.x.
	Tid int64
	// NTid is %ntid.x (block size).
	NTid int64
	// NCtaID is %nctaid.x (grid size).
	NCtaID int64
}

// ClassHist is a dense per-class instruction histogram, indexed by
// ptx.Class. The hot path accumulates into this fixed-size array —
// value-comparable, copyable, allocation-free — and only the
// serialization boundary (KernelReport/Report) converts to the sparse
// map form.
type ClassHist [ptx.NumClasses]int64

// ExecResult is the outcome of abstractly executing one thread.
type ExecResult struct {
	// Steps is the number of dynamically executed instructions.
	Steps int64
	// PerClass histograms the executed instructions by class.
	PerClass ClassHist
	// Interpreted counts the instructions actually evaluated (the slice);
	// Steps-Interpreted instructions were only counted.
	Interpreted int64
	// BackBranches counts taken backward branches — the total loop
	// iterations of the thread.
	BackBranches int64
}

// ExecOptions tunes the abstract executor.
type ExecOptions struct {
	// MaxSteps aborts runaway executions (default 50M).
	MaxSteps int64
	// Full interprets every instruction instead of only the control
	// slice (global loads read as zero). Used by the ablation study.
	Full bool
}

// effectiveMaxSteps resolves the MaxSteps default.
func (o ExecOptions) effectiveMaxSteps() int64 {
	if o.MaxSteps <= 0 {
		return 50_000_000
	}
	return o.MaxSteps
}
