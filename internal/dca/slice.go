package dca

import "cnnperf/internal/ptx"

// ControlSlice computes the subgraph G_v* of instructions that must be
// executed to decide every branch of the kernel: the branches themselves,
// their guard predicates, and the transitive data dependencies of those
// predicates (the backward slice over the dependency graph). This is the
// core of the paper's speed claim — only this slice is interpreted, not
// the full kernel.
type ControlSlice struct {
	// InSlice[i] reports whether instruction i belongs to the slice.
	InSlice []bool
	// Size is the number of instructions in the slice.
	Size int
}

// Fraction returns |slice| / |body|.
func (s *ControlSlice) Fraction() float64 {
	if len(s.InSlice) == 0 {
		return 0
	}
	return float64(s.Size) / float64(len(s.InSlice))
}

// BuildControlSlice computes the control slice of a kernel given its
// dependency graph.
func BuildControlSlice(k *ptx.Kernel, g *DepGraph) *ControlSlice {
	return buildControlSlice(ptx.DecodeKernel(k), g)
}

// buildControlSlice computes the control slice of a decoded kernel
// given its dependency graph.
func buildControlSlice(d *ptx.DecodedKernel, g *DepGraph) *ControlSlice {
	n := len(d.Insts)
	s := &ControlSlice{InSlice: make([]bool, n)}
	stack := make([]int32, 0, n) // each instruction is pushed at most once
	mark := func(i int32) {
		if !s.InSlice[i] {
			s.InSlice[i] = true
			stack = append(stack, i)
		}
	}
	for i := range d.Insts {
		if op := d.Insts[i].Op; op.Branch || op.Exit {
			mark(int32(i))
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range g.Deps(int(i)) {
			mark(j)
		}
	}
	for _, in := range s.InSlice {
		if in {
			s.Size++
		}
	}
	return s
}
