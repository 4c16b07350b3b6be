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

// regOperand extracts the register name from an operand, handling memory
// references "[%rd1+4]" and plain registers "%r3". Immediates, labels,
// parameter names and special read-only registers return "". The
// extraction is shared with the static analyses via ptx.RegOperand.
func regOperand(op string) string { return ptx.RegOperand(op) }

// BuildDepGraph constructs the dependency graph of a kernel body.
func BuildDepGraph(k *ptx.Kernel) *DepGraph {
	n := len(k.Body)
	// Registers get dense ids, interned once per defined name. The
	// definitions of register id form a list in body order, from
	// head[id] along next; tail[id] is its last. Each instruction
	// defines at most one register.
	ids := make(map[string]int32, n)
	head, tail := make([]int32, 0, n), make([]int32, 0, n)
	next := make([]int32, n)
	for i := range k.Body {
		next[i] = -1
		d := k.Body[i].Dest()
		if d == "" {
			continue
		}
		if id, ok := ids[d]; ok {
			next[tail[id]] = int32(i)
			tail[id] = int32(i)
		} else {
			ids[d] = int32(len(head))
			head = append(head, int32(i))
			tail = append(tail, int32(i))
		}
	}
	// Every instruction's dependencies go into one backing array, and
	// seen[d] == i+1 once d is a dependency of instruction i. An
	// accumulator read of the destination (fma d, a, b, d) is a source.
	var all []int
	end := make([]int, n)
	seen := make([]int, n)
	for i := range k.Body {
		in := &k.Body[i]
		srcs := in.Sources()
		for s := 0; s <= len(srcs); s++ {
			reg := in.Pred // after the sources
			if s < len(srcs) {
				reg = regOperand(srcs[s])
			}
			id, ok := ids[reg]
			if !ok {
				continue
			}
			for d := head[id]; d >= 0; d = next[d] {
				if int(d) != i && seen[d] != i+1 {
					seen[d] = i + 1
					all = append(all, int(d))
				}
			}
		}
		end[i] = len(all)
	}
	g := &DepGraph{Deps: make([][]int, n)}
	from := 0
	for i, e := range end {
		if e > from {
			g.Deps[i] = all[from:e:e]
		}
		from = e
	}
	return g
}
