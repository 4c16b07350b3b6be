package ptxanalysis

import (
	"math/bits"
	"sort"
	"strings"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
)

// RegSet is a set of register ids of one ptx.DecodedKernel, one bit per
// id.
type RegSet []uint64

func newRegSets(count, regs int) []RegSet {
	words := (regs + 63) / 64
	backing := make([]uint64, count*words)
	sets := make([]RegSet, count)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// Has reports whether id is in the set.
func (s RegSet) Has(id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// Len returns the number of ids in the set.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s RegSet) add(id int32)    { s[id>>6] |= 1 << (id & 63) }
func (s RegSet) remove(id int32) { s[id>>6] &^= 1 << (id & 63) }

// each calls f for every id in the set, in increasing order.
func (s RegSet) each(f func(id int32)) {
	for wi, w := range s {
		for w != 0 {
			f(int32(wi*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// usesOf calls f for every register an instruction reads: its register
// sources (including address registers of memory references), then its
// guard predicate.
func usesOf(d *ptx.DecodedKernel, i int, f func(id int32)) {
	in := &d.Insts[i]
	for _, s := range d.Srcs(i) {
		if s.Kind == ptx.SrcReg {
			f(s.Reg)
		}
	}
	if in.Guard >= 0 {
		f(in.Guard)
	}
}

// Liveness holds the per-block live-variable solution and the derived
// facts of one kernel.
type Liveness struct {
	// LiveIn[b] is the set of registers live on entry to block b.
	LiveIn []RegSet
	// LiveOut[b] is the set of registers live on exit from block b.
	LiveOut []RegSet
	// UseBeforeDef maps each register that may be read before any
	// definition to the index of its first reading instruction.
	UseBeforeDef map[string]int
	// DeadDefs are indices of instructions whose destination register is
	// not live immediately after the definition (dead stores). Predicated
	// definitions are excluded: they may deliberately leave the previous
	// value in place.
	DeadDefs []int

	regs []string
}

// Names returns the names of the registers in s, sorted.
func (lv *Liveness) Names(s RegSet) []string {
	var out []string
	s.each(func(id int32) { out = append(out, lv.regs[id]) })
	sort.Strings(out)
	return out
}

// ComputeLiveness solves backward live-variable dataflow over the CFG:
//
//	LiveOut[b] = union of LiveIn[s] over successors s of b
//	LiveIn[b]  = use[b] ∪ (LiveOut[b] − def[b])
//
// iterated to a fixpoint, then derives use-before-def and dead
// definitions.
func ComputeLiveness(k *ptx.Kernel, g *cfg.Graph) *Liveness {
	return computeLiveness(ptx.DecodeKernel(k), g)
}

func computeLiveness(d *ptx.DecodedKernel, g *cfg.Graph) *Liveness {
	n := len(g.Blocks)
	sets := newRegSets(2*n+1, len(d.Regs))
	lv := &Liveness{
		LiveIn:       sets[:n],
		LiveOut:      sets[n : 2*n],
		UseBeforeDef: make(map[string]int),
		regs:         d.Regs,
	}
	// The per-block use and def sets live only here, so they share one
	// array without a set header each: block b's are useDef(b).
	words := len(sets[2*n])
	useDefs := make([]uint64, 2*n*words)
	useDef := func(b int) (use, def RegSet) {
		w := useDefs[2*b*words:]
		return w[:words:words], w[words : 2*words : 2*words]
	}
	for bi, b := range g.Blocks {
		u, df := useDef(bi)
		for i := b.Start; i < b.End; i++ {
			in := &d.Insts[i]
			usesOf(d, i, func(r int32) {
				if !df.Has(r) {
					u.add(r)
				}
			})
			// A guarded definition is a may-def: when the predicate is
			// false the old value flows through, so it must not kill
			// liveness (else an upstream use-before-def is masked and an
			// upstream store is wrongly declared dead).
			if in.Dest >= 0 && in.Guard < 0 {
				df.add(in.Dest)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for bi := n - 1; bi >= 0; bi-- {
			out := lv.LiveOut[bi]
			for _, s := range g.Blocks[bi].Succs {
				for w, x := range lv.LiveIn[s] {
					if x&^out[w] != 0 {
						out[w] |= x
						changed = true
					}
				}
			}
			in := lv.LiveIn[bi]
			u, df := useDef(bi)
			for w := range in {
				if x := u[w] | out[w]&^df[w]; x&^in[w] != 0 {
					in[w] |= x
					changed = true
				}
			}
		}
	}

	// Use-before-def: registers live into the entry block have a path
	// from kernel entry to a read with no prior write. Attribute each to
	// its first reading instruction.
	entry := lv.LiveIn[0]
	pending := entry.Len()
	entry.each(func(r int32) { lv.UseBeforeDef[d.Regs[r]] = -1 })
	seen := sets[2*n]
	for i := 0; pending > 0 && i < len(d.Insts); i++ {
		usesOf(d, i, func(r int32) {
			if entry.Has(r) && !seen.Has(r) {
				seen.add(r)
				lv.UseBeforeDef[d.Regs[r]] = i
				pending--
			}
		})
	}

	// Dead definitions: walk each block backwards from its live-out set.
	live := make(RegSet, len(entry))
	for bi, b := range g.Blocks {
		copy(live, lv.LiveOut[bi])
		for i := b.End - 1; i >= b.Start; i-- {
			in := &d.Insts[i]
			if in.Dest >= 0 {
				if !live.Has(in.Dest) && in.Guard < 0 {
					lv.DeadDefs = append(lv.DeadDefs, i)
				}
				// Only an unguarded definition kills the value flowing
				// from above; a may-def leaves it observable.
				if in.Guard < 0 {
					live.remove(in.Dest)
				}
			}
			usesOf(d, i, live.add)
		}
	}
	sort.Ints(lv.DeadDefs)
	return lv
}

// Pressure is the static register pressure of one kernel: the maximum
// number of simultaneously live virtual registers at any program point.
type Pressure struct {
	// ByType maps a register type (".pred", ".b32", ".b64", ".f32") to
	// its maximum simultaneous live count.
	ByType map[string]int
	// Total is the maximum live count across all types at one point.
	Total int
}

// regType resolves a register's declared type via the kernel's register
// banks, falling back to the conventional prefixes of compiled PTX.
func regType(k *ptx.Kernel, reg string) string {
	best := ""
	for _, rd := range k.Regs {
		if strings.HasPrefix(reg, rd.Prefix) && len(rd.Prefix) > len(best) {
			best = rd.Type
		}
	}
	if best != "" {
		return best
	}
	switch {
	case strings.HasPrefix(reg, "%p"):
		return ".pred"
	case strings.HasPrefix(reg, "%rd"):
		return ".b64"
	case strings.HasPrefix(reg, "%f"):
		return ".f32"
	default:
		return ".b32"
	}
}

// ComputePressure measures the maximum live-register counts per register
// type by replaying each block backwards from its live-out set.
func ComputePressure(k *ptx.Kernel, g *cfg.Graph, lv *Liveness) Pressure {
	return computePressure(ptx.DecodeKernel(k), g, lv)
}

// computePressure keeps the per-type live counts up to date as
// registers enter and leave the live set, so each program point costs
// one comparison per register type.
func computePressure(d *ptx.DecodedKernel, g *cfg.Graph, lv *Liveness) Pressure {
	var types []string
	typeOf := make([]int, len(d.Regs))
	for id, r := range d.Regs {
		t := regType(d.Kernel, r)
		ti := 0
		for ti < len(types) && types[ti] != t {
			ti++
		}
		if ti == len(types) {
			// A declared type is sliced out of the kernel text; the
			// cached analysis keeps its own copy.
			types = append(types, strings.Clone(t))
		}
		typeOf[id] = ti
	}
	counts := make([]int, len(types))
	peak := make([]int, len(types))
	live := make(RegSet, (len(d.Regs)+63)/64)
	total, maxTotal := 0, 0
	enter := func(r int32) {
		if !live.Has(r) {
			live.add(r)
			counts[typeOf[r]]++
			total++
		}
	}
	measure := func() {
		maxTotal = max(maxTotal, total)
		for t, c := range counts {
			peak[t] = max(peak[t], c)
		}
	}
	for bi, b := range g.Blocks {
		clear(live)
		clear(counts)
		total = 0
		lv.LiveOut[bi].each(enter)
		measure()
		for i := b.End - 1; i >= b.Start; i-- {
			in := &d.Insts[i]
			// Mirror the liveness kill rule: a guarded definition may
			// preserve the incoming value, which therefore stays live
			// (and counted) across it.
			if r := in.Dest; r >= 0 && in.Guard < 0 && live.Has(r) {
				live.remove(r)
				counts[typeOf[r]]--
				total--
			}
			usesOf(d, i, enter)
			measure()
		}
	}
	p := Pressure{ByType: make(map[string]int), Total: maxTotal}
	for t, c := range peak {
		if c > 0 {
			p.ByType[types[t]] = c
		}
	}
	return p
}
