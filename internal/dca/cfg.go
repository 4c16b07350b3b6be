// Package dca implements the paper's Dynamic Code Analysis: it parses a
// CNN's PTX kernels into a data-dependency graph G = {V, E} and a control
// flow graph, slices the subgraph of instructions needed to decide each
// branch, and abstractly executes only that slice to resolve branch
// outcomes and loop trip counts. The result is the total number of
// executed PTX instructions — obtained without running the CNN on a GPU
// and without a cycle-level simulator (Section IV-A of the paper).
package dca

import (
	"fmt"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
	"cnnperf/internal/ptxanalysis"
)

// CFG is the control-flow graph of one kernel, shared with the
// static-analysis framework via internal/ptx/cfg.
type CFG = cfg.Graph

// BuildCFG partitions the kernel body into basic blocks and wires the
// successor edges from branch targets and fallthrough. The construction
// lives in internal/ptx/cfg so the static analyses see the same blocks.
func BuildCFG(k *ptx.Kernel) (*CFG, error) {
	g, err := cfg.Build(k)
	if err != nil {
		return nil, fmt.Errorf("dca: %w", err)
	}
	return g, nil
}

// kernelCFG returns the control-flow graph and natural loops of k from
// the gate level of its shared static analysis. Every gate carries its
// CFG except an empty body's, so only a nil a (Compile) or an empty
// body reaches BuildCFG, which rejects the empty body.
func kernelCFG(k *ptx.Kernel, a *ptxanalysis.KernelGate) (*CFG, []ptxanalysis.Loop, error) {
	if a != nil && a.CFG != nil {
		return a.CFG, a.Loops, nil
	}
	g, err := BuildCFG(k)
	if err != nil {
		return nil, nil, err
	}
	return g, ptxanalysis.NaturalLoops(g, ptxanalysis.Dominators(g)), nil
}
