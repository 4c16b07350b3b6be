package ptxanalysis

import (
	"sort"

	"cnnperf/internal/ptx/cfg"
)

// DomTree is the dominator tree of a CFG: Idom[b] is the immediate
// dominator of block b, Idom[entry] == entry, and unreachable blocks
// carry Idom == -1.
type DomTree struct {
	// Idom maps a block to its immediate dominator.
	Idom []int
	// depth caches the tree depth of each block for Dominates queries.
	depth []int
}

// Dominates reports whether block a dominates block b (reflexively).
func (d *DomTree) Dominates(a, b int) bool {
	if b < 0 || b >= len(d.Idom) || d.Idom[b] < 0 {
		return false
	}
	for b != a {
		if d.depth[b] == 0 {
			return false // reached the entry without meeting a
		}
		b = d.Idom[b]
	}
	return true
}

// Dominators computes the dominator tree with the iterative
// Cooper-Harvey-Kennedy algorithm over a reverse postorder.
func Dominators(g *cfg.Graph) *DomTree {
	n := len(g.Blocks)
	succs := func(b int) []int { return g.Blocks[b].Succs }
	preds := func(b int) []int { return g.Blocks[b].Preds }
	return dominatorsOf(n, 0, succs, preds)
}

// PostDominators computes the post-dominator tree: the dominator tree of
// the reversed CFG rooted at a virtual exit node that succeeds every
// block without successors. The returned tree has n+1 entries; index n
// is the virtual exit. Blocks that cannot reach any exit (infinite
// loops) carry Idom == -1.
func PostDominators(g *cfg.Graph) *DomTree {
	n := len(g.Blocks)
	// Reversed graph: the virtual exit node n points at every real exit.
	rsucc := make([][]int, n+1)
	rpred := make([][]int, n+1)
	for b, blk := range g.Blocks {
		for _, s := range blk.Succs {
			rsucc[s] = append(rsucc[s], b)
			rpred[b] = append(rpred[b], s)
		}
		if len(blk.Succs) == 0 {
			rsucc[n] = append(rsucc[n], b)
			rpred[b] = append(rpred[b], n)
		}
	}
	return dominatorsOf(n+1, n, func(b int) []int { return rsucc[b] }, func(b int) []int { return rpred[b] })
}

// dominatorsOf is the graph-direction-agnostic core: dominators of every
// node reachable from entry, following succs edges, joining over preds.
func dominatorsOf(n, entry int, succs, preds func(int) []int) *DomTree {
	// Reverse postorder from the entry.
	order := make([]int, 0, n)
	state := make([]int, n) // 0 unvisited, 1 on stack, 2 done
	var dfs func(int)
	dfs = func(b int) {
		state[b] = 1
		for _, s := range succs(b) {
			if state[s] == 0 {
				dfs(s)
			}
		}
		state[b] = 2
		order = append(order, b)
	}
	dfs(entry)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds(b) {
				if idom[p] < 0 {
					continue // predecessor not yet reached
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	d := &DomTree{Idom: idom, depth: make([]int, n)}
	for _, b := range order {
		if b == entry || idom[b] < 0 {
			continue
		}
		d.depth[b] = d.depth[idom[b]] + 1
	}
	return d
}

// Loop is one natural loop: the blocks reached backwards from a back
// edge's tail without passing the dominating header.
type Loop struct {
	// Header is the loop-header block index.
	Header int
	// Blocks are the member block indices (including the header), sorted.
	Blocks []int
	// Depth is the nesting depth (outermost loop = 1).
	Depth int
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool {
	i := sort.SearchInts(l.Blocks, b)
	return i < len(l.Blocks) && l.Blocks[i] == b
}

// NaturalLoops finds the natural loops of the CFG: for every back edge
// (t, h) where h dominates t, the loop body is h plus all blocks that
// reach t without passing through h. Loops sharing a header are merged.
// Back edges whose target does not dominate the source (irreducible
// control flow) produce no loop; the linter flags them separately.
func NaturalLoops(g *cfg.Graph, dom *DomTree) []Loop {
	bodies := make(map[int]map[int]bool) // header -> member set
	for _, e := range g.BackEdges() {
		tail, head := e[0], e[1]
		if !dom.Dominates(head, tail) {
			continue
		}
		body := bodies[head]
		if body == nil {
			body = map[int]bool{head: true}
			bodies[head] = body
		}
		// Reverse-reachability from the tail, stopping at the header.
		stack := []int{tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[b] {
				continue
			}
			body[b] = true
			for _, p := range g.Blocks[b].Preds {
				stack = append(stack, p)
			}
		}
	}
	headers := make([]int, 0, len(bodies))
	for h := range bodies {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	loops := make([]Loop, 0, len(headers))
	for _, h := range headers {
		members := make([]int, 0, len(bodies[h]))
		for b := range bodies[h] {
			members = append(members, b)
		}
		sort.Ints(members)
		loops = append(loops, Loop{Header: h, Blocks: members})
	}
	// Nesting depth: a loop is nested once per distinct other loop whose
	// body contains its header.
	for i := range loops {
		depth := 1
		for j := range loops {
			if i != j && loops[j].Contains(loops[i].Header) && loops[j].Header != loops[i].Header {
				depth++
			}
		}
		loops[i].Depth = depth
	}
	return loops
}
