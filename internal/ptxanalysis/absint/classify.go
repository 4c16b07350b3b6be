package absint

import (
	"strings"

	"cnnperf/internal/ptx"
)

// Coalescing thresholds, in bytes of per-thread stride. The memory
// system serves a warp in 32-byte sectors: a known stride at or past a
// full sector means every lane of a warp touches its own sector — the
// access is provably uncoalesced regardless of alignment.
const (
	// UncoalescedStrideBytes is the PTXA010 threshold.
	UncoalescedStrideBytes = 32
	// sharedBankBytes and sharedBanks model the standard 32-bank,
	// 4-byte-word shared memory layout.
	sharedBankBytes = 4
	sharedBanks     = 32
)

// elemBytes derives the access width from the opcode's type suffix
// (ld.global.f32 → 4, st.shared.u64 → 8, ...).
func elemBytes(opcode string) int64 {
	parts := strings.Split(opcode, ".")
	for i := len(parts) - 1; i >= 1; i-- {
		p := parts[i]
		switch {
		case strings.HasSuffix(p, "64"):
			return 8
		case strings.HasSuffix(p, "32"):
			return 4
		case strings.HasSuffix(p, "16"):
			return 2
		case strings.HasSuffix(p, "8"):
			return 1
		case p == "pred":
			return 1
		}
	}
	return 4
}

// AccessSpaceOf classifies a memory opcode's address space.
func AccessSpaceOf(opcode string) Space {
	switch {
	case strings.Contains(opcode, ".param"):
		return SpaceParam
	case strings.Contains(opcode, ".shared"):
		return SpaceShared
	default:
		return SpaceGlobal
	}
}

// recordAccess classifies the memory instruction at body index line
// from the abstract value of its address register.
func (e *engine) recordAccess(bi, line int, st []Value) {
	opcode := e.d.Kernel.Body[line].Opcode
	space := AccessSpaceOf(opcode)
	if space == SpaceParam {
		return // parameter loads never touch the memory system
	}
	in := &e.d.Insts[line]
	class := in.Op.Class
	acc := MemAccess{
		Line:      line,
		Block:     bi,
		Space:     space,
		Store:     class == ptx.ClassStore || class == ptx.ClassStoreShared,
		ElemBytes: elemBytes(opcode),
		Class:     CoalUnknown,
	}
	addr := topUniform() // direct parameter reference: grid-uniform
	if r := in.Addr; r >= 0 {
		// A register named only inside a bracketed destination has no
		// slot: its value is unknown.
		addr = topAny()
		if int(r) < len(st) {
			addr = st[r]
		}
	}
	if stride, ok := addr.StrideConst(); ok {
		acc.StrideKnown = true
		acc.StrideBytes = stride
		abs := stride
		if abs < 0 {
			abs = -abs
		}
		switch {
		case abs == 0:
			acc.Class = CoalUniform
		case abs <= acc.ElemBytes:
			acc.Class = CoalCoalesced
		default:
			acc.Class = CoalStrided
		}
		if space == SpaceShared {
			acc.ConflictWays = bankConflictWays(stride)
		}
	}
	e.res.Accesses = append(e.res.Accesses, acc)
}

// bankConflictWays computes the shared-memory bank-conflict degree of a
// known per-thread byte stride: with addresses a + s·t, lane t hits
// bank (a/4 + (s/4)·t) mod 32, so 32/gcd(32, s/4) distinct banks are
// touched and gcd(32, s/4) lanes collide on each. A zero stride is a
// broadcast (conflict-free); a stride off the 4-byte word grid is
// reported as unknown (0).
func bankConflictWays(strideBytes int64) int {
	if strideBytes < 0 {
		strideBytes = -strideBytes
	}
	if strideBytes == 0 {
		return 1 // broadcast
	}
	if strideBytes%sharedBankBytes != 0 {
		return 0
	}
	words := (strideBytes / sharedBankBytes) % sharedBanks
	if words == 0 {
		return sharedBanks // every lane lands on one bank
	}
	return int(gcd64(sharedBanks, words))
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
