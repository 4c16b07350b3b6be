package dca

import (
	"cnnperf/internal/ptx"
)

// DepGraph is the data-dependency graph G = {V, E} of one kernel: node i
// is instruction i, and Deps(i) lists the instructions whose results
// instruction i may consume (conservative: every definition of each
// source register, in any block).
type DepGraph struct {
	// deps[off[i]:off[i+1]] are instruction i's dependencies.
	off, deps []int32
}

// Len returns the number of instructions |V|.
func (g *DepGraph) Len() int { return len(g.off) - 1 }

// Deps returns the indices instruction i depends on: the definitions of
// each source register in operand order, then of the guard predicate,
// each register's in ascending order, without repeats. The slice is
// the graph's own.
func (g *DepGraph) Deps(i int) []int32 { return g.deps[g.off[i]:g.off[i+1]:g.off[i+1]] }

// Edges returns the total number of dependency edges |E|.
func (g *DepGraph) Edges() int { return len(g.deps) }

// BuildDepGraph constructs the dependency graph of a kernel body.
func BuildDepGraph(k *ptx.Kernel) *DepGraph { return buildDepGraph(ptx.DecodeKernel(k)) }

// buildDepGraph constructs the dependency graph of a decoded kernel
// body. A register is named by its decoded id: a destination by its
// operand text, a source by the register it reads (directly or as a
// memory reference's address), a guard by its predicate.
func buildDepGraph(d *ptx.DecodedKernel) *DepGraph {
	n, nr := len(d.Insts), d.NumOperandRegs
	// The definitions of register r form a list in body order, from
	// head[r] along next, built walking the body backwards. Each
	// instruction defines at most one register, and destinations are
	// operand registers, so their ids are below NumOperandRegs. seen[j]
	// == i+1 once j is a dependency of instruction i. The graph's
	// offsets share the allocation.
	lists := make([]int32, nr+3*n+1)
	head, next, seen := lists[:nr], lists[nr:nr+n], lists[nr+n:nr+2*n]
	g := &DepGraph{off: lists[nr+2*n:]}
	for r := range head {
		head[r] = -1
	}
	reads := 0
	for i := n - 1; i >= 0; i-- {
		reads += len(d.Srcs(i)) + 1
		next[i] = -1
		if r := d.Insts[i].Dest; r >= 0 {
			next[i], head[r] = head[r], int32(i)
		}
	}
	// Every instruction's dependencies go into one array, sized for one
	// definition per register read; a register defined more often grows
	// it. An accumulator read of the destination (fma d, a, b, d) is a
	// source.
	g.deps = make([]int32, 0, reads)
	add := func(i int, r int32) {
		for j := head[r]; j >= 0; j = next[j] {
			if int(j) != i && seen[j] != int32(i+1) {
				seen[j] = int32(i + 1)
				g.deps = append(g.deps, j)
			}
		}
	}
	for i := range d.Insts {
		in := &d.Insts[i]
		for _, src := range d.Srcs(i) {
			if src.Kind == ptx.SrcReg {
				add(i, src.Reg)
			}
		}
		if in.Guard >= 0 {
			add(i, in.Guard)
		}
		g.off[i+1] = int32(len(g.deps))
	}
	return g
}
