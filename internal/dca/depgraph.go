package dca

import (
	"cnnperf/internal/ptx"
)

// DepGraph is the data-dependency graph G = {V, E} of one kernel: node i
// is instruction i, and Deps[i] lists the instructions whose results
// instruction i may consume (conservative: every definition of each
// source register, in any block).
type DepGraph struct {
	// Deps[i] are the indices instruction i depends on: the definitions
	// of each source register in operand order, then of the guard
	// predicate, each register's in ascending order, without repeats.
	Deps [][]int
}

// Edges returns the total number of dependency edges |E|.
func (g *DepGraph) Edges() int {
	n := 0
	for _, d := range g.Deps {
		n += len(d)
	}
	return n
}

// BuildDepGraph constructs the dependency graph of a kernel body.
func BuildDepGraph(k *ptx.Kernel) *DepGraph { return buildDepGraph(ptx.DecodeKernel(k)) }

// buildDepGraph constructs the dependency graph of a decoded kernel
// body. A register is named by its decoded id: a destination by its
// operand text, a source by the register it reads (directly or as a
// memory reference's address), a guard by its predicate.
func buildDepGraph(d *ptx.DecodedKernel) *DepGraph {
	n, nr := len(d.Insts), d.NumOperandRegs
	// The definitions of register r form a list in body order, from
	// head[r] along next; tail[r] is its last. Each instruction defines
	// at most one register, and destinations are operand registers, so
	// their ids are below NumOperandRegs. seen[j] == i+1 once j is a
	// dependency of instruction i.
	lists := make([]int32, 2*nr+2*n)
	head, tail, next, seen := lists[:nr], lists[nr:2*nr], lists[2*nr:2*nr+n], lists[2*nr+n:]
	for r := range head {
		head[r] = -1
	}
	reads := 0
	for i := range d.Insts {
		in := &d.Insts[i]
		reads += len(in.Srcs) + 1
		next[i] = -1
		r := in.Dest
		if r < 0 {
			continue
		}
		if head[r] < 0 {
			head[r] = int32(i)
		} else {
			next[tail[r]] = int32(i)
		}
		tail[r] = int32(i)
	}
	// Every instruction's dependencies go into one backing array, sized
	// for one definition per register read; a register defined more
	// often grows it, and the earlier instructions keep theirs. An
	// accumulator read of the destination (fma d, a, b, d) is a source.
	all := make([]int, 0, reads)
	deps := func(i int, r int32) {
		for j := head[r]; j >= 0; j = next[j] {
			if int(j) != i && seen[j] != int32(i+1) {
				seen[j] = int32(i + 1)
				all = append(all, int(j))
			}
		}
	}
	g := &DepGraph{Deps: make([][]int, n)}
	for i := range d.Insts {
		in := &d.Insts[i]
		from := len(all)
		for s := range in.Srcs {
			if in.Srcs[s].Kind == ptx.SrcReg {
				deps(i, in.Srcs[s].Reg)
			}
		}
		if in.Guard >= 0 {
			deps(i, in.Guard)
		}
		if to := len(all); to > from {
			g.Deps[i] = all[from:to:to]
		}
	}
	return g
}
