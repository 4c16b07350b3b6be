package ptxanalysis

import (
	"strings"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis/absint"
)

// Mix is the static instruction-mix profile of one kernel.
type Mix struct {
	// PerClass counts static instructions per execution class.
	PerClass map[ptx.Class]int
	// GlobalLoads, GlobalStores, SharedLoads, SharedStores and ParamLoads
	// break the memory operations down by address space.
	GlobalLoads, GlobalStores, SharedLoads, SharedStores, ParamLoads int
	// Branches counts control transfers; CondBranches the guarded subset.
	Branches, CondBranches int
	// Barriers counts bar/membar synchronisations.
	Barriers int
	// BranchDensity is Branches divided by the body length.
	BranchDensity float64
	// CoalescedGlobal and StridedGlobal split the global accesses by the
	// address-arithmetic heuristic of StrideClass.
	CoalescedGlobal, StridedGlobal int
	// CoalescedFraction is CoalescedGlobal over all global accesses
	// (1.0 when the kernel touches no global memory).
	CoalescedFraction float64
	// FPFraction is the share of FP32+FMA+SFU instructions.
	FPFraction float64
	// MemFraction is the share of memory instructions (all spaces).
	MemFraction float64
	// SharedFraction is the share of shared-memory instructions.
	SharedFraction float64
}

// strideClass orders the thread-index dependence of a register value.
type strideClass int

const (
	// strideUniform: the value does not depend on the thread index
	// (parameters, loop counters, block-uniform arithmetic).
	strideUniform strideClass = iota
	// strideUnit: the value is an affine function of the thread index
	// with a small element-size coefficient — neighbouring threads touch
	// neighbouring addresses, the access coalesces.
	strideUnit
	// strideScattered: the thread index is scaled by a large or unknown
	// factor — neighbouring threads touch distant addresses.
	strideScattered
)

func maxStride(a, b strideClass) strideClass {
	if a > b {
		return a
	}
	return b
}

// strider resolves the stride class of registers by walking their
// definitions. Cyclic definitions (loop counters: add %r1, %r1, 1)
// resolve to the class of their acyclic inputs.
type strider struct {
	d *ptx.DecodedKernel
	// The body indices defining register id r are
	// defIdx[defStart[r]:defStart[r+1]].
	defStart, defIdx []int32
	memo             []strideClass
	state            []uint8 // unvisited, on the resolution stack, or memoized
}

const (
	strideUnvisited uint8 = iota
	strideOnStack
	strideDone
)

func newStrider(d *ptx.DecodedKernel) *strider {
	n := len(d.Regs)
	s := &strider{
		d:        d,
		defStart: make([]int32, n+1),
		memo:     make([]strideClass, n),
		state:    make([]uint8, n),
	}
	for i := range d.Insts {
		if r := d.Insts[i].Dest; r >= 0 {
			s.defStart[r+1]++
		}
	}
	for r := range n {
		s.defStart[r+1] += s.defStart[r]
	}
	s.defIdx = make([]int32, s.defStart[n])
	next := append([]int32(nil), s.defStart[:n]...)
	for i := range d.Insts {
		if r := d.Insts[i].Dest; r >= 0 {
			s.defIdx[next[r]] = int32(i)
			next[r]++
		}
	}
	return s
}

// smallStride reports whether an immediate multiplier preserves
// coalescing: scaling a thread index by an element size (1-8 bytes, or
// shifts up to 3 bits) keeps neighbouring threads within one memory
// transaction.
func smallStride(op ptx.Src) bool {
	return op.Kind == ptx.SrcImm && op.Imm >= 1 && op.Imm <= 8
}

func smallShift(op ptx.Src) bool {
	return op.Kind == ptx.SrcImm && op.Imm >= 0 && op.Imm <= 3
}

// operandClass resolves one operand: immediates and parameters are
// uniform, %tid.x is the unit reference, other special registers are
// uniform per thread block.
func (s *strider) operandClass(op ptx.Src) strideClass {
	// The operand's text starts with "%tid.": a special register, or a
	// register read directly, spelled as its name, of that prefix.
	switch op.Kind {
	case ptx.SrcSpecial:
		if strings.HasPrefix(op.Special(), "%tid.") {
			return strideUnit
		}
	case ptx.SrcReg:
		if !op.Mem && strings.HasPrefix(s.d.Regs[op.Reg], "%tid.") {
			return strideUnit
		}
		return s.regClass(op.Reg)
	}
	return strideUniform
}

func (s *strider) regClass(reg int32) strideClass {
	switch s.state[reg] {
	case strideDone:
		return s.memo[reg]
	case strideOnStack:
		// Cycle through a loop-carried definition: the recursive
		// contribution is the register's own class, which the other
		// definitions determine.
		return strideUniform
	}
	s.state[reg] = strideOnStack
	c := strideUniform
	for _, di := range s.defIdx[s.defStart[reg]:s.defStart[reg+1]] {
		c = maxStride(c, s.defClass(int(di)))
	}
	s.state[reg] = strideDone
	s.memo[reg] = c
	return c
}

// defClass derives the stride class produced by one defining instruction.
func (s *strider) defClass(i int) strideClass {
	in := &s.d.Insts[i]
	root := in.Op.Root
	srcs := s.d.Srcs(i)
	get := func(i int) strideClass {
		if i < len(srcs) {
			return s.operandClass(srcs[i])
		}
		return strideUniform
	}
	switch root {
	case "mov", "cvt", "cvta", "ld":
		// Moves and conversions forward their input; loads produce data,
		// not thread-index arithmetic.
		if root == "ld" {
			return strideUniform
		}
		return get(0)
	case "add", "sub", "or", "and", "xor", "min", "max", "rem", "selp":
		c := strideUniform
		for i := range srcs {
			c = maxStride(c, get(i))
		}
		return c
	case "shl":
		if get(0) == strideUniform {
			return strideUniform
		}
		if len(srcs) > 0 && smallShift(srcs[len(srcs)-1]) {
			return get(0)
		}
		return strideScattered
	case "mul":
		return s.mulClass(get(0), get(1), srcs)
	case "mad", "fma":
		// a*b + c
		prod := s.mulClass(get(0), get(1), srcs[:min(2, len(srcs))])
		return maxStride(prod, get(2))
	case "div", "shr":
		if get(0) == strideUniform {
			return strideUniform
		}
		return strideScattered
	default:
		c := strideUniform
		for i := range srcs {
			c = maxStride(c, get(i))
		}
		return c
	}
}

// mulClass resolves a product: uniform*uniform stays uniform; a
// thread-index term survives multiplication only by a small element-size
// immediate.
func (s *strider) mulClass(a, b strideClass, srcs []ptx.Src) strideClass {
	if a == strideUniform && b == strideUniform {
		return strideUniform
	}
	// One side carries the thread index: the product still coalesces only
	// when the other side is a small element-size immediate.
	if a != strideUniform && len(srcs) >= 2 && smallStride(srcs[1]) {
		return a
	}
	if b != strideUniform && len(srcs) >= 1 && smallStride(srcs[0]) {
		return b
	}
	return strideScattered
}

// ComputeMix profiles the static instruction mix of a kernel, including
// the coalescing estimate from address-arithmetic patterns: a global
// access whose address is an affine function of %tid.x with an
// element-size coefficient is counted as coalesced, anything scaling the
// thread index further as strided.
func ComputeMix(k *ptx.Kernel) Mix { return computeMix(ptx.DecodeKernel(k)) }

func computeMix(d *ptx.DecodedKernel) Mix {
	m := Mix{PerClass: make(map[ptx.Class]int)}
	st := newStrider(d)
	n := len(d.Insts)
	var fp, mem, shared int
	for i := range d.Insts {
		in := &d.Insts[i]
		space := absint.AccessSpaceOf(d.Kernel.Body[i].Opcode)
		c := in.Op.Class
		m.PerClass[c]++
		switch c {
		case ptx.ClassLoad:
			if space == absint.SpaceParam {
				m.ParamLoads++
			} else {
				m.GlobalLoads++
			}
			mem++
		case ptx.ClassStore:
			m.GlobalStores++
			mem++
		case ptx.ClassLoadShared:
			m.SharedLoads++
			mem++
			shared++
		case ptx.ClassStoreShared:
			m.SharedStores++
			mem++
			shared++
		case ptx.ClassBranch:
			m.Branches++
			if in.Guard >= 0 {
				m.CondBranches++
			}
		case ptx.ClassSync:
			m.Barriers++
		case ptx.ClassFP32, ptx.ClassFMA, ptx.ClassSFU:
			fp++
		}
		// Coalescing: only global-space loads and stores.
		if (c == ptx.ClassLoad || c == ptx.ClassStore) && space == absint.SpaceGlobal {
			if in.Addr >= 0 {
				if st.regClass(in.Addr) <= strideUnit {
					m.CoalescedGlobal++
				} else {
					m.StridedGlobal++
				}
			} else {
				m.CoalescedGlobal++ // direct parameter reference
			}
		}
	}
	if n > 0 {
		m.BranchDensity = float64(m.Branches) / float64(n)
		m.FPFraction = float64(fp) / float64(n)
		m.MemFraction = float64(mem) / float64(n)
		m.SharedFraction = float64(shared) / float64(n)
	}
	if g := m.CoalescedGlobal + m.StridedGlobal; g > 0 {
		m.CoalescedFraction = float64(m.CoalescedGlobal) / float64(g)
	} else {
		m.CoalescedFraction = 1
	}
	return m
}
