// Package ptx models NVIDIA's Parallel Thread Execution (PTX) virtual ISA
// at the level the paper's dynamic code analysis requires: typed
// instructions over virtual registers, predicates, branches and labels,
// kernels with parameters, and a text form compatible with the fragments
// the paper shows (Fig. 2). It contains an instruction-set table, a
// module/kernel object model, a parser for the generated subset and a
// printer; parse(print(m)) == m.
package ptx

import "strings"

// Class buckets opcodes by execution resource, mirroring how GPU timing
// models charge instructions to functional units.
type Class int

const (
	// ClassUnknown marks opcodes outside the table.
	ClassUnknown Class = iota
	// ClassIntALU covers 32/64-bit integer and logical operations.
	ClassIntALU
	// ClassFP32 covers single-precision add/mul/min/max.
	ClassFP32
	// ClassFMA covers fused multiply-add (the GEMM workhorse).
	ClassFMA
	// ClassSFU covers special-function approximations (rcp, ex2, ...).
	ClassSFU
	// ClassLoad covers global/param memory reads.
	ClassLoad
	// ClassStore covers global memory writes.
	ClassStore
	// ClassLoadShared covers on-chip shared-memory reads.
	ClassLoadShared
	// ClassStoreShared covers on-chip shared-memory writes.
	ClassStoreShared
	// ClassCompare covers predicate-setting comparisons.
	ClassCompare
	// ClassMove covers register moves and selects.
	ClassMove
	// ClassConvert covers type conversions and address-space casts.
	ClassConvert
	// ClassBranch covers control transfers.
	ClassBranch
	// ClassSync covers barriers.
	ClassSync
	// ClassControl covers ret/exit.
	ClassControl
)

// String returns a short class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassIntALU:
		return "int"
	case ClassFP32:
		return "fp32"
	case ClassFMA:
		return "fma"
	case ClassSFU:
		return "sfu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassLoadShared:
		return "ld.shared"
	case ClassStoreShared:
		return "st.shared"
	case ClassCompare:
		return "cmp"
	case ClassMove:
		return "mov"
	case ClassConvert:
		return "cvt"
	case ClassBranch:
		return "branch"
	case ClassSync:
		return "sync"
	case ClassControl:
		return "ctl"
	default:
		return "unknown"
	}
}

// Classes lists every concrete class once, in a stable order, for
// histogram construction.
var Classes = []Class{
	ClassIntALU, ClassFP32, ClassFMA, ClassSFU, ClassLoad, ClassStore,
	ClassLoadShared, ClassStoreShared,
	ClassCompare, ClassMove, ClassConvert, ClassBranch, ClassSync, ClassControl,
}

// rootClass maps the opcode root (text before the first '.') to a class.
var rootClass = map[string]Class{
	"add": ClassIntALU, "sub": ClassIntALU, "mul": ClassIntALU,
	"mad": ClassIntALU, "div": ClassIntALU, "rem": ClassIntALU,
	"min": ClassIntALU, "max": ClassIntALU, "abs": ClassIntALU,
	"neg": ClassIntALU, "and": ClassIntALU, "or": ClassIntALU,
	"xor": ClassIntALU, "not": ClassIntALU, "shl": ClassIntALU,
	"shr": ClassIntALU,
	"fma": ClassFMA,
	"rcp": ClassSFU, "sqrt": ClassSFU, "rsqrt": ClassSFU,
	"ex2": ClassSFU, "lg2": ClassSFU, "sin": ClassSFU, "cos": ClassSFU,
	"ld":     ClassLoad,
	"st":     ClassStore,
	"setp":   ClassCompare,
	"mov":    ClassMove,
	"selp":   ClassMove,
	"cvt":    ClassConvert,
	"cvta":   ClassConvert,
	"bra":    ClassBranch,
	"bar":    ClassSync,
	"ret":    ClassControl,
	"exit":   ClassControl,
	"trap":   ClassControl,
	"membar": ClassSync,
}

// ClassOf determines the execution class of a full opcode such as
// "fma.rn.f32" or "ld.global.f32". Floating-point arithmetic on the
// int-ALU roots (add.f32, mul.f32, ...) is reclassified to ClassFP32,
// and double/approx divisions to the SFU.
func ClassOf(opcode string) Class {
	root, rest, _ := strings.Cut(opcode, ".")
	c, ok := rootClass[root]
	if !ok {
		return ClassUnknown
	}
	if strings.Contains(rest, "shared") {
		switch c {
		case ClassLoad:
			return ClassLoadShared
		case ClassStore:
			return ClassStoreShared
		}
	}
	if c == ClassIntALU && rest != "" {
		if strings.Contains(rest, "f32") || strings.Contains(rest, "f64") {
			if root == "div" {
				return ClassSFU
			}
			return ClassFP32
		}
	}
	return c
}

// The predicates below read the memoized Decode, so per-instruction
// callers (CFG construction, validation, slicing) look a cached opcode
// spelling up instead of re-splitting it on every call.

// IsBranch reports whether the opcode transfers control.
func IsBranch(opcode string) bool { return Decode(opcode).Branch }

// IsBarrier reports whether the opcode is a synchronisation barrier.
func IsBarrier(opcode string) bool { return Decode(opcode).Barrier }

// IsExit reports whether the opcode terminates the thread.
func IsExit(opcode string) bool { return Decode(opcode).Exit }

// HasDest reports whether the first operand of the opcode is a
// destination register (everything except stores, branches, barriers and
// control opcodes in our subset).
func HasDest(opcode string) bool { return Decode(opcode).Dest }
