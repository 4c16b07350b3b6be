// Package ptxgen lowers a cnn.Model into PTX kernels plus launch
// configurations — the role nvcc plays in the paper's pipeline. Each graph
// node becomes one or more kernels with one thread per output element,
// realistic address arithmetic, bounds-check branches and reduction loops,
// so that the dynamic code analysis downstream faces the same
// data-dependent control flow it would in nvcc output (paper Fig. 2).
package ptxgen

import (
	"strconv"

	"cnnperf/internal/ptx"
)

// emitter builds one kernel, allocating virtual registers and labels.
type emitter struct {
	k       *ptx.Kernel
	nr      int // %r   32-bit int
	nrd     int // %rd  64-bit int
	nf      int // %f   fp32
	np      int // %p   predicates
	nlabels int
	batch   int64 // scales the bounds-check extent of prologue(n)
	// ops is the backing array the instructions' operands are carved
	// from (capacity-limited sub-slices, so no two alias): one array per
	// opsChunk operands instead of one per instruction.
	ops []string
}

// Initial sizes of a kernel's body and of its operand arrays. Table I
// kernels have a median of 27 instructions (at most 35) and 65
// operands (at most 87), so a body rarely grows past bodyCap and a
// kernel takes one or two operand arrays. Both sizes are kept small on purpose: a
// model's whole program is live while it is analysed, and spare
// capacity there raises the peak heap of a dataset build.
const (
	bodyCap  = 32
	opsChunk = 48
)

func newEmitter(name string) *emitter {
	return &emitter{k: &ptx.Kernel{Name: name, Body: make([]ptx.Instruction, 0, bodyCap)}, batch: 1}
}

// param declares a kernel parameter and returns its name.
func (e *emitter) param(typ string) string {
	name := e.k.Name + "_param_" + strconv.Itoa(len(e.k.Params))
	e.k.Params = append(e.k.Params, ptx.Param{Name: name, Type: typ})
	return name
}

// regTable holds the pre-rendered names of one register bank; names
// past its end are rendered on demand.
type regTable struct {
	prefix string
	names  [128]string
}

func newRegTable(prefix string) *regTable {
	t := &regTable{prefix: prefix}
	for i := range t.names {
		t.names[i] = prefix + strconv.Itoa(i)
	}
	return t
}

func (t *regTable) name(i int) string {
	if i < len(t.names) {
		return t.names[i]
	}
	return t.prefix + strconv.Itoa(i)
}

var (
	rRegs  = newRegTable("%r")
	rdRegs = newRegTable("%rd")
	fRegs  = newRegTable("%f")
	pRegs  = newRegTable("%p")
)

func (e *emitter) r() string  { e.nr++; return rRegs.name(e.nr) }
func (e *emitter) rd() string { e.nrd++; return rdRegs.name(e.nrd) }
func (e *emitter) f() string  { e.nf++; return fRegs.name(e.nf) }
func (e *emitter) p() string  { e.np++; return pRegs.name(e.np) }

// label reserves a fresh label name (not yet placed).
func (e *emitter) label(hint string) string {
	e.nlabels++
	return "$L__" + hint + "_" + strconv.Itoa(e.nlabels)
}

// place attaches a label to the next emitted instruction.
func (e *emitter) place(label string) {
	if err := e.k.AddLabel(label); err != nil {
		panic(err) // programming error: labels are generated unique
	}
}

// emit appends an unpredicated instruction.
func (e *emitter) emit(opcode string, operands ...string) {
	e.k.Append(ptx.Instruction{Opcode: opcode, Operands: e.carve(operands)})
}

// emitPred appends an instruction guarded by pred (negated when neg).
func (e *emitter) emitPred(pred string, neg bool, opcode string, operands ...string) {
	e.k.Append(ptx.Instruction{Pred: pred, PredNeg: neg, Opcode: opcode, Operands: e.carve(operands)})
}

// carve copies an instruction's operands into the kernel's operand
// array. No operands stay a nil slice.
func (e *emitter) carve(operands []string) []string {
	if len(operands) == 0 {
		return nil
	}
	if cap(e.ops)-len(e.ops) < len(operands) {
		e.ops = make([]string, 0, max(opsChunk, len(operands)))
	}
	start := len(e.ops)
	e.ops = append(e.ops, operands...)
	return e.ops[start:len(e.ops):len(e.ops)]
}

// finish declares the register banks from the allocation counters and
// returns the kernel.
func (e *emitter) finish() *ptx.Kernel {
	if e.np > 0 {
		e.k.Regs = append(e.k.Regs, ptx.RegDecl{Type: ".pred", Prefix: "%p", Count: e.np + 1})
	}
	if e.nf > 0 {
		e.k.Regs = append(e.k.Regs, ptx.RegDecl{Type: ".f32", Prefix: "%f", Count: e.nf + 1})
	}
	if e.nr > 0 {
		e.k.Regs = append(e.k.Regs, ptx.RegDecl{Type: ".b32", Prefix: "%r", Count: e.nr + 1})
	}
	if e.nrd > 0 {
		e.k.Regs = append(e.k.Regs, ptx.RegDecl{Type: ".b64", Prefix: "%rd", Count: e.nrd + 1})
	}
	return e.k
}

// prologue emits the canonical thread prologue: load pointer params,
// convert to global addresses, compute the global thread id and emit the
// bounds check against n. It returns the global-id register, the global
// pointer registers (one per pointer param) and the exit label (placed by
// epilogue).
func (e *emitter) prologue(nPtrParams int, n int64) (gid string, ptrs []string, exit string) {
	n *= e.batch
	ptrs = make([]string, nPtrParams)
	for i := 0; i < nPtrParams; i++ {
		pname := e.param(".u64")
		raw := e.rd()
		e.emit("ld.param.u64", raw, "["+pname+"]")
		g := e.rd()
		e.emit("cvta.to.global.u64", g, raw)
		ptrs[i] = g
	}
	ctaid := e.r()
	e.emit("mov.u32", ctaid, "%ctaid.x")
	ntid := e.r()
	e.emit("mov.u32", ntid, "%ntid.x")
	tid := e.r()
	e.emit("mov.u32", tid, "%tid.x")
	gid = e.r()
	e.emit("mad.lo.s32", gid, ctaid, ntid, tid)
	oob := e.p()
	e.emit("setp.ge.s32", oob, gid, imm(n))
	exit = e.label("EXIT")
	e.emitPred(oob, false, "bra", exit)
	return gid, ptrs, exit
}

// epilogue places the exit label and emits ret.
func (e *emitter) epilogue(exit string) {
	e.place(exit)
	e.emit("ret")
}

// loadF emits the address computation and global load of one fp32 element
// at base + 4*idx32, returning the loaded register. Three instructions of
// address arithmetic per access, like compiled code.
func (e *emitter) loadF(base, idx32 string) string {
	wide := e.rd()
	e.emit("mul.wide.s32", wide, idx32, "4")
	addr := e.rd()
	e.emit("add.s64", addr, base, wide)
	val := e.f()
	e.emit("ld.global.f32", val, "["+addr+"]")
	return val
}

// storeF emits the address computation and global store of one fp32
// element at base + 4*idx32.
func (e *emitter) storeF(base, idx32, val string) {
	wide := e.rd()
	e.emit("mul.wide.s32", wide, idx32, "4")
	addr := e.rd()
	e.emit("add.s64", addr, base, wide)
	e.emit("st.global.f32", "["+addr+"]", val)
}

// channelParams declares a fresh pointer parameter, loads it and
// computes the per-channel index of gid — the addressing prelude of a
// fused per-channel normalisation.
func (e *emitter) channelParams(gid string, channels int64) (base, ch string) {
	pname := e.param(".u64")
	raw := e.rd()
	e.emit("ld.param.u64", raw, "["+pname+"]")
	base = e.rd()
	e.emit("cvta.to.global.u64", base, raw)
	ch = e.r()
	e.emit("rem.s32", ch, gid, imm(channels))
	return base, ch
}

// loadSharedF emits a shared-memory load of one fp32 element at
// base + 4*idx32.
func (e *emitter) loadSharedF(base, idx32 string) string {
	wide := e.rd()
	e.emit("mul.wide.s32", wide, idx32, "4")
	addr := e.rd()
	e.emit("add.s64", addr, base, wide)
	val := e.f()
	e.emit("ld.shared.f32", val, "["+addr+"]")
	return val
}

// storeSharedF emits a shared-memory store of one fp32 element at
// base + 4*idx32.
func (e *emitter) storeSharedF(base, idx32, val string) {
	wide := e.rd()
	e.emit("mul.wide.s32", wide, idx32, "4")
	addr := e.rd()
	e.emit("add.s64", addr, base, wide)
	e.emit("st.shared.f32", "["+addr+"]", val)
}

// macLoop emits a multiply-accumulate reduction loop of k iterations. The
// per-iteration input index is in0 = gid*c0 + i*c1 (mad) and the weight
// index iw = i*c2 + gid%... simplified to i*c2 + gid (mad), which matches
// the addressing density of real GEMM inner loops. Returns the
// accumulator register.
func (e *emitter) macLoop(gid string, aBase, bBase string, k int64, c0, c1, c2 int64) string {
	i := e.r()
	e.emit("mov.u32", i, "0")
	acc := e.f()
	e.emit("mov.f32", acc, "0f00000000")
	loop := e.label("LOOP")
	e.place(loop)
	ia := e.r()
	e.emit("mad.lo.s32", ia, i, imm(c1), gid)
	ia2 := e.r()
	e.emit("mul.lo.s32", ia2, ia, imm(c0))
	a := e.loadF(aBase, ia2)
	ib := e.r()
	e.emit("mad.lo.s32", ib, i, imm(c2), gid)
	b := e.loadF(bBase, ib)
	e.emit("fma.rn.f32", acc, a, b, acc)
	e.emit("add.s32", i, i, "1")
	again := e.p()
	e.emit("setp.lt.s32", again, i, imm(k))
	e.emitPred(again, false, "bra", loop)
	return acc
}

// imm renders an integer immediate operand.
func imm(v int64) string { return strconv.FormatInt(v, 10) }
