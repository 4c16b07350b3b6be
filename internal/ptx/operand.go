package ptx

import "strings"

// SpecialRegs are the read-only hardware registers: they are sourced by
// instructions but never defined by one.
var SpecialRegs = [...]string{
	"%tid.x", "%tid.y", "%tid.z",
	"%ntid.x", "%ntid.y", "%ntid.z",
	"%ctaid.x", "%ctaid.y", "%ctaid.z",
	"%nctaid.x", "%nctaid.y", "%nctaid.z",
}

// specialRegs maps each of SpecialRegs to its index.
var specialRegs = func() map[string]int {
	m := make(map[string]int, len(SpecialRegs))
	for i, r := range SpecialRegs {
		m[r] = i
	}
	return m
}()

// IsSpecialReg reports whether the operand names a read-only hardware
// register such as "%tid.x".
func IsSpecialReg(op string) bool {
	_, ok := specialRegs[op]
	return ok
}

// RegOperand extracts the virtual register name from an operand, handling
// memory references "[%rd1+4]" and plain registers "%r3". Immediates,
// labels, parameter names and special read-only registers return "".
func RegOperand(op string) string {
	op = strings.TrimSpace(op)
	if strings.HasPrefix(op, "[") {
		op = strings.TrimPrefix(op, "[")
		op = strings.TrimSuffix(op, "]")
		if i := strings.IndexAny(op, "+-"); i > 0 {
			op = op[:i]
		}
	}
	if !strings.HasPrefix(op, "%") || IsSpecialReg(op) {
		return ""
	}
	return op
}
