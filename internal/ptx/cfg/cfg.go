// Package cfg builds control-flow graphs over parsed PTX kernels. It is
// shared by the dynamic code analysis (which slices branch-deciding
// instructions) and the static-analysis framework (which computes
// dominators, loop nesting and dataflow facts over the same blocks).
package cfg

import (
	"fmt"

	"cnnperf/internal/ptx"
)

// Block is a maximal straight-line instruction range [Start, End).
type Block struct {
	// Start is the index of the first instruction.
	Start int
	// End is one past the last instruction.
	End int
	// Succs are the indices of successor blocks in the CFG.
	Succs []int
	// Preds are the indices of predecessor blocks in the CFG.
	Preds []int
}

// Graph is the control-flow graph of one kernel.
type Graph struct {
	// Blocks are the basic blocks in ascending Start order.
	Blocks []*Block
	// blockOf maps an instruction index to its block index.
	blockOf []int32
}

// BlockOf returns the block index containing instruction idx.
func (g *Graph) BlockOf(idx int) int { return int(g.blockOf[idx]) }

// Flags of one instruction in Build's kind table.
const (
	leader uint8 = 1 << iota // starts a basic block
	branch                   // a branch (ptx.OpInfo.Branch)
	exit                     // terminates the thread (ptx.OpInfo.Exit)
)

// Build partitions the kernel body into basic blocks and wires the
// successor and predecessor edges from branch targets and fallthrough.
// The entry block is always Blocks[0].
func Build(k *ptx.Kernel) (*Graph, error) {
	n := len(k.Body)
	if n == 0 {
		return nil, fmt.Errorf("cfg: kernel %q has an empty body", k.Name)
	}
	// One decode per instruction: kind[i] records whether instruction i
	// branches or exits and whether it starts a block. kind has n+1
	// entries so the fallthrough past a terminator needs no bounds test.
	kind := make([]uint8, n+1)
	kind[0] = leader
	for i := range k.Body {
		in := &k.Body[i]
		op := ptx.Decode(in.Opcode)
		if op.Branch {
			if len(in.Operands) != 1 {
				return nil, fmt.Errorf("cfg: kernel %q: branch at %d needs 1 operand", k.Name, i)
			}
			tgt, err := k.Target(in.Operands[0])
			if err != nil {
				return nil, fmt.Errorf("cfg: %w", err)
			}
			if tgt < n {
				kind[tgt] |= leader
			}
			kind[i] |= branch
			kind[i+1] |= leader
		}
		if op.Exit {
			kind[i] |= exit
			kind[i+1] |= leader
		}
	}
	// Labels also start blocks: predicated instructions may jump there.
	for _, idx := range k.Labels {
		if idx < n {
			kind[idx] |= leader
		}
	}

	nb := 0
	for _, f := range kind[:n] {
		if f&leader != 0 {
			nb++
		}
	}
	blocks := make([]Block, nb)
	g := &Graph{Blocks: make([]*Block, nb), blockOf: make([]int32, n)}
	for bi, start, i := 0, 0, 1; i <= n; i++ {
		if i == n || kind[i]&leader != 0 {
			blocks[bi] = Block{Start: start, End: i}
			g.Blocks[bi] = &blocks[bi]
			for j := start; j < i; j++ {
				g.blockOf[j] = int32(bi)
			}
			bi, start = bi+1, i
		}
	}
	// Successors.
	for bi, b := range g.Blocks {
		last := &k.Body[b.End-1]
		switch f := kind[b.End-1]; {
		case f&exit != 0 && last.Pred == "":
			// no successors
		case f&branch != 0:
			tgt, err := k.Target(last.Operands[0])
			if err != nil {
				return nil, fmt.Errorf("cfg: %w", err)
			}
			if tgt < n {
				b.Succs = append(b.Succs, int(g.blockOf[tgt]))
			}
			if last.Pred != "" && b.End < n {
				// Conditional branch falls through too.
				b.Succs = append(b.Succs, bi+1)
			}
		default:
			if b.End < n {
				b.Succs = append(b.Succs, bi+1)
			}
		}
	}
	for bi, b := range g.Blocks {
		for _, s := range b.Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, bi)
		}
	}
	return g, nil
}

// BackEdges returns the (from, to) block pairs whose branch jumps backward
// — the loop edges of the kernel.
func (g *Graph) BackEdges() [][2]int {
	var out [][2]int
	for bi, b := range g.Blocks {
		for _, s := range b.Succs {
			if s <= bi {
				out = append(out, [2]int{bi, s})
			}
		}
	}
	return out
}

// Reachable returns the set of block indices reachable from the entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
