package dca

import (
	"strconv"
	"testing"

	"cnnperf/internal/cnn"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// countedLoop builds a kernel that loops a fixed number of times:
//
//	mov r1, 0
//	L: add r1, r1, 1; setp.lt p1, r1, n; @p1 bra L
//	ret
func countedLoop(t *testing.T, n int64) *ptx.Kernel {
	t.Helper()
	k := &ptx.Kernel{Name: "counted"}
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "0"}})
	if err := k.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r1", "%r1", "1"}})
	k.Append(ptx.Instruction{Opcode: "setp.lt.s32", Operands: []string{"%p1", "%r1", imm(n)}})
	k.Append(ptx.Instruction{Pred: "%p1", Opcode: "bra", Operands: []string{"L"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	return k
}

func imm(v int64) string { return strconv.FormatInt(v, 10) }

func TestCFGStructure(t *testing.T) {
	k := countedLoop(t, 4)
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	// Blocks: [mov], [add setp bra], [ret].
	if len(cfg.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(cfg.Blocks))
	}
	if cfg.BlockOf(0) != 0 || cfg.BlockOf(1) != 1 || cfg.BlockOf(4) != 2 {
		t.Error("blockOf wrong")
	}
	loop := cfg.Blocks[1]
	if len(loop.Succs) != 2 {
		t.Fatalf("loop block succs = %v", loop.Succs)
	}
	back := cfg.BackEdges()
	if len(back) != 1 || back[0] != [2]int{1, 1} {
		t.Errorf("back edges = %v", back)
	}
}

func TestCFGEmptyKernel(t *testing.T) {
	if _, err := BuildCFG(&ptx.Kernel{Name: "empty"}); err == nil {
		t.Error("empty kernel should error")
	}
}

func TestCFGSingleBlock(t *testing.T) {
	k := &ptx.Kernel{Name: "line"}
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "%tid.x"}})
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r2", "%r1", "1"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if len(cfg.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(cfg.Blocks))
	}
	b := cfg.Blocks[0]
	if b.Start != 0 || b.End != 3 || len(b.Succs) != 0 || len(b.Preds) != 0 {
		t.Errorf("block = %+v", *b)
	}
	if len(cfg.BackEdges()) != 0 {
		t.Error("straight line has no back edges")
	}
	for i := 0; i < 3; i++ {
		if cfg.BlockOf(i) != 0 {
			t.Errorf("blockOf(%d) = %d", i, cfg.BlockOf(i))
		}
	}
}

// TestCFGBackEdgeOnlyLoop: an unconditional self-loop with no exit path
// — the whole body is one block whose only successor is itself.
func TestCFGBackEdgeOnlyLoop(t *testing.T) {
	k := &ptx.Kernel{Name: "spin"}
	if err := k.AddLabel("SPIN"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r1", "%r1", "1"}})
	k.Append(ptx.Instruction{Opcode: "bra.uni", Operands: []string{"SPIN"}})
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if len(cfg.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(cfg.Blocks))
	}
	b := cfg.Blocks[0]
	if len(b.Succs) != 1 || b.Succs[0] != 0 || len(b.Preds) != 1 || b.Preds[0] != 0 {
		t.Errorf("self-loop edges wrong: %+v", *b)
	}
	back := cfg.BackEdges()
	if len(back) != 1 || back[0] != [2]int{0, 0} {
		t.Errorf("back edges = %v", back)
	}
	reach := cfg.Reachable()
	if len(reach) != 1 || !reach[0] {
		t.Errorf("reachable = %v", reach)
	}
}

// TestCFGUnreachableTrailingBlock: code after an unconditional ret forms
// its own block with no predecessors.
func TestCFGUnreachableTrailingBlock(t *testing.T) {
	k := &ptx.Kernel{Name: "dead"}
	k.Append(ptx.Instruction{Opcode: "ret"})
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "0"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if len(cfg.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(cfg.Blocks))
	}
	if len(cfg.Blocks[0].Succs) != 0 {
		t.Errorf("ret block has successors: %v", cfg.Blocks[0].Succs)
	}
	if len(cfg.Blocks[1].Preds) != 0 {
		t.Errorf("dead block has predecessors: %v", cfg.Blocks[1].Preds)
	}
	reach := cfg.Reachable()
	if !reach[0] || reach[1] {
		t.Errorf("reachable = %v, want [true false]", reach)
	}
}

// TestCFGPredicatedExitFallsThrough: a guarded ret does not terminate
// the block's control flow — the not-taken threads continue.
func TestCFGPredicatedExitFallsThrough(t *testing.T) {
	k := &ptx.Kernel{Name: "guard"}
	k.Append(ptx.Instruction{Opcode: "setp.lt.s32", Operands: []string{"%p1", "%r1", "8"}})
	k.Append(ptx.Instruction{Pred: "%p1", Opcode: "ret"})
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r2", "1"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if len(cfg.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(cfg.Blocks))
	}
	if len(cfg.Blocks[0].Succs) != 1 || cfg.Blocks[0].Succs[0] != 1 {
		t.Errorf("predicated exit must fall through: %v", cfg.Blocks[0].Succs)
	}
}

// TestLintGateRejectsBadKernel: the static-analysis gate refuses kernels
// with error-severity diagnostics before abstract execution.
func TestLintGateRejectsBadKernel(t *testing.T) {
	k := &ptx.Kernel{Name: "ubd"}
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r2", "%r5", "1"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	l := ptxgen.Launch{Kernel: "ubd", GridX: 1, BlockX: 32, Threads: 32}
	if _, err := AnalyzeKernelLaunch(k, l, Options{}); err == nil {
		t.Error("use-before-def kernel must be rejected by the lint gate")
	}
}

func TestDepGraph(t *testing.T) {
	k := countedLoop(t, 4)
	g := BuildDepGraph(k)
	// setp (index 2) depends on add (index 1); add depends on mov (0)
	// and itself... (self-deps are excluded).
	has := func(i, j int) bool {
		for _, d := range g.Deps(i) {
			if int(d) == j {
				return true
			}
		}
		return false
	}
	if !has(2, 1) {
		t.Error("setp should depend on add")
	}
	if !has(1, 0) {
		t.Error("add should depend on mov")
	}
	if has(1, 1) {
		t.Error("self-dependency must be excluded")
	}
	// bra (3) depends on setp (2) via predicate.
	if !has(3, 2) {
		t.Error("bra should depend on its predicate definition")
	}
	if g.Edges() == 0 {
		t.Error("edges = 0")
	}
}

func TestRegOperand(t *testing.T) {
	cases := map[string]string{
		"%r1":          "%r1",
		"[%rd4]":       "%rd4",
		"[%rd4+16]":    "%rd4",
		"42":           "",
		"label":        "",
		"%tid.x":       "",
		"[param_name]": "",
	}
	for in, want := range cases {
		if got := regOperand(in); got != want {
			t.Errorf("regOperand(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestControlSliceOfLoop(t *testing.T) {
	k := countedLoop(t, 4)
	g := BuildDepGraph(k)
	s := BuildControlSlice(k, g)
	// Everything in this kernel feeds the branch: slice = all 5.
	if s.Size != 5 {
		t.Errorf("slice size = %d, want 5", s.Size)
	}
	if s.Fraction() != 1.0 {
		t.Errorf("fraction = %f", s.Fraction())
	}
}

func TestControlSliceExcludesDataPath(t *testing.T) {
	k := countedLoop(t, 2)
	// Splice in a data-only FMA chain before ret: it must not join the
	// slice.
	body := append([]ptx.Instruction{}, k.Body[:4]...)
	body = append(body,
		ptx.Instruction{Opcode: "mov.f32", Operands: []string{"%f1", "0f00000000"}},
		ptx.Instruction{Opcode: "fma.rn.f32", Operands: []string{"%f1", "%f1", "%f1", "%f1"}},
		ptx.Instruction{Opcode: "ret"},
	)
	k2 := &ptx.Kernel{Name: "withdata", Labels: k.Labels, Body: body}
	g := BuildDepGraph(k2)
	s := BuildControlSlice(k2, g)
	if s.InSlice[4] || s.InSlice[5] {
		t.Error("fp data chain must not be in the control slice")
	}
	if !s.InSlice[3] || !s.InSlice[2] {
		t.Error("branch and predicate must be in the slice")
	}
}

func TestExecuteThreadCountsLoop(t *testing.T) {
	k := countedLoop(t, 16)
	g := BuildDepGraph(k)
	s := BuildControlSlice(k, g)
	res, err := ExecuteThread(k, s, nil, ThreadCtx{NTid: 256, NCtaID: 1}, ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// mov + 16*(add+setp+bra) + ret = 50.
	if res.Steps != 50 {
		t.Errorf("steps = %d, want 50", res.Steps)
	}
	if res.PerClass[ptx.ClassIntALU] != 16 || res.PerClass[ptx.ClassCompare] != 16 ||
		res.PerClass[ptx.ClassBranch] != 16 || res.PerClass[ptx.ClassControl] != 1 {
		t.Errorf("per-class = %v", res.PerClass)
	}
}

func TestExecuteThreadInfiniteLoopGuard(t *testing.T) {
	k := &ptx.Kernel{Name: "inf"}
	if err := k.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "bra", Operands: []string{"L"}})
	g := BuildDepGraph(k)
	s := BuildControlSlice(k, g)
	_, err := ExecuteThread(k, s, nil, ThreadCtx{}, ExecOptions{MaxSteps: 1000})
	if err == nil {
		t.Error("infinite loop should hit the step guard")
	}
}

func TestExecuteThreadUndefinedRegister(t *testing.T) {
	k := &ptx.Kernel{Name: "undef"}
	k.Append(ptx.Instruction{Opcode: "setp.lt.s32", Operands: []string{"%p1", "%r9", "3"}})
	if err := k.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Pred: "%p1", Opcode: "bra", Operands: []string{"L"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	g := BuildDepGraph(k)
	s := BuildControlSlice(k, g)
	if _, err := ExecuteThread(k, s, nil, ThreadCtx{}, ExecOptions{}); err == nil {
		t.Error("reading an undefined register should error")
	}
}

func TestOperandValue(t *testing.T) {
	env := map[string]int64{"%r1": 7}
	ctx := ThreadCtx{CtaID: 2, Tid: 3, NTid: 256, NCtaID: 10}
	cases := []struct {
		op   string
		want int64
	}{
		{"%r1", 7}, {"42", 42}, {"-5", -5},
		{"%tid.x", 3}, {"%ctaid.x", 2}, {"%ntid.x", 256}, {"%nctaid.x", 10},
		{"0f3F800000", 0x3F800000},
	}
	for _, c := range cases {
		got, err := operandValue(c.op, env, ctx)
		if err != nil || got != c.want {
			t.Errorf("operandValue(%q) = %d, %v; want %d", c.op, got, err, c.want)
		}
	}
	if _, err := operandValue("%r9", env, ctx); err == nil {
		t.Error("undefined register should error")
	}
	if _, err := operandValue("banana", env, ctx); err == nil {
		t.Error("garbage operand should error")
	}
}

func TestIntBinopAndCompare(t *testing.T) {
	if v, _ := intBinop("div", 7, 2); v != 3 {
		t.Error("div")
	}
	if _, err := intBinop("div", 7, 0); err == nil {
		t.Error("div by zero should error")
	}
	if _, err := intBinop("rem", 7, 0); err == nil {
		t.Error("rem by zero should error")
	}
	if v, _ := intBinop("shl", 1, 10); v != 1024 {
		t.Error("shl")
	}
	if v, _ := intBinop("min", -3, 5); v != -3 {
		t.Error("min")
	}
	if v, _ := compare("ne", 1, 2); v != 1 {
		t.Error("ne")
	}
	if _, err := compare("zz", 1, 2); err == nil {
		t.Error("unknown comparison should error")
	}
}

// compileSmall compiles a compact CNN for end-to-end analysis tests.
func compileSmall(t *testing.T) *ptxgen.Program {
	t.Helper()
	b, x := cnn.NewBuilder("tiny", cnn.Shape{H: 8, W: 8, C: 3})
	x = b.Add(cnn.ConvNoBias(4, 3, 1, cnn.Same), x)
	x = b.Add(cnn.BN(), x)
	x = b.Add(cnn.ReLU(), x)
	x = b.Add(cnn.MaxPool2D(2, 2, cnn.Valid), x)
	x = b.Add(cnn.Flatten{}, x)
	x = b.Add(cnn.FC(10), x)
	x = b.Add(cnn.Softmax(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ptxgen.Compile(m, ptxgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestAnalyzeProgramEndToEnd(t *testing.T) {
	prog := compileSmall(t)
	rep, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if rep.Model != "tiny" {
		t.Errorf("model = %q", rep.Model)
	}
	if len(rep.Kernels) != len(prog.Launches) {
		t.Errorf("kernel reports = %d, launches = %d", len(rep.Kernels), len(prog.Launches))
	}
	if rep.Executed <= 0 {
		t.Fatal("no executed instructions")
	}
	// Sum of kernels must equal the total.
	var sum int64
	for _, kr := range rep.Kernels {
		sum += kr.Executed
		if kr.PerThread <= 0 || kr.Executed < kr.PerThread {
			t.Errorf("%s: implausible counts %+v", kr.Kernel, kr)
		}
		if kr.SliceFraction <= 0 || kr.SliceFraction > 1 {
			t.Errorf("%s: slice fraction %f", kr.Kernel, kr.SliceFraction)
		}
	}
	if sum != rep.Executed {
		t.Errorf("kernel sum %d != total %d", sum, rep.Executed)
	}
	// Per-class totals must sum to the executed count.
	var classSum int64
	for _, v := range rep.PerClass {
		classSum += v
	}
	if classSum != rep.Executed {
		t.Errorf("class sum %d != executed %d", classSum, rep.Executed)
	}
	if rep.MeanSliceFraction <= 0 || rep.MeanSliceFraction >= 1 {
		t.Errorf("mean slice fraction = %f (slicing should skip the data path)", rep.MeanSliceFraction)
	}
}

// TestSliceMatchesFullInterpretation is the key correctness property of
// the paper's trick: executing only the control slice must yield exactly
// the same dynamic instruction counts as interpreting everything.
func TestSliceMatchesFullInterpretation(t *testing.T) {
	prog := compileSmall(t)
	sliced, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := AnalyzeProgram(prog, Options{Exec: ExecOptions{Full: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Executed != full.Executed {
		t.Errorf("sliced executed %d != full %d", sliced.Executed, full.Executed)
	}
	for c, v := range full.PerClass {
		if sliced.PerClass[c] != v {
			t.Errorf("class %v: sliced %d != full %d", c, sliced.PerClass[c], v)
		}
	}
}

// TestConvExecutedCountFormula verifies the conv kernel's dynamic count
// against the closed form 18 + 13*K per in-bounds thread (12 fixed
// prologue/bounds-check instructions, 2 loop-init, 13 per iteration,
// 3 store, 1 ret).
func TestConvExecutedCountFormula(t *testing.T) {
	b, x := cnn.NewBuilder("one", cnn.Shape{H: 4, W: 4, C: 2})
	x = b.Add(cnn.ConvNoBias(4, 3, 1, cnn.Same), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ptxgen.Compile(m, ptxgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kr := rep.Kernels[0]
	k := int64(3 * 3 * 2) // KH*KW*Cin
	wantPerThread := 18 + 13*k
	if kr.PerThread != wantPerThread {
		t.Errorf("per-thread = %d, want %d", kr.PerThread, wantPerThread)
	}
	// 64 active threads, grid 1x256 -> 192 OOB threads running the
	// 13-instruction prologue+exit path.
	wantTotal := 64*wantPerThread + 192*13
	if kr.Executed != wantTotal {
		t.Errorf("executed = %d, want %d", kr.Executed, wantTotal)
	}
}

func TestAnalyzeDeterminism(t *testing.T) {
	prog := compileSmall(t)
	a, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Executed != b.Executed {
		t.Error("analysis not deterministic")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeProgram(nil, Options{}); err == nil {
		t.Error("nil program should error")
	}
	if _, err := AnalyzeKernelLaunch(nil, ptxgen.Launch{}, Options{}); err == nil {
		t.Error("nil kernel should error")
	}
}

// TestExecutedScalesWithBatch: the dynamic instruction total of a batched
// program is (nearly) batch times the single-sample total — the small
// difference is the out-of-bounds padding of the last block.
func TestExecutedScalesWithBatch(t *testing.T) {
	b, x := cnn.NewBuilder("bt", cnn.Shape{H: 8, W: 8, C: 4})
	x = b.Add(cnn.ConvNoBias(8, 3, 1, cnn.Same), x)
	x = b.Add(cnn.ReLU(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(batch int) int64 {
		prog, err := ptxgen.Compile(m, ptxgen.Options{Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeProgram(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Executed
	}
	e1, e8 := exec(1), exec(8)
	ratio := float64(e8) / float64(e1)
	if ratio < 7.5 || ratio > 8.5 {
		t.Errorf("batch-8 executed %d is %.2fx batch-1 %d, want about 8x", e8, ratio, e1)
	}
}

// TestTiledLoweringReducesGlobalTraffic: the tiled convolution must
// execute the same number of FMAs as the implicit one (same math, K
// padded up to the tile size) while issuing far fewer global loads.
func TestTiledLoweringReducesGlobalTraffic(t *testing.T) {
	b, x := cnn.NewBuilder("tiletest", cnn.Shape{H: 8, W: 8, C: 32})
	x = b.Add(cnn.ConvNoBias(16, 3, 1, cnn.Same), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(l ptxgen.ConvLowering) *Report {
		prog, err := ptxgen.Compile(m, ptxgen.Options{Lowering: l})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeProgram(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	implicit := analyze(ptxgen.ImplicitGEMM)
	tiled := analyze(ptxgen.TiledGEMM)

	// K = 288 = 18 tiles exactly: identical FMA counts.
	if implicit.PerClass[ptx.ClassFMA] != tiled.PerClass[ptx.ClassFMA] {
		t.Errorf("FMA counts differ: implicit %d, tiled %d",
			implicit.PerClass[ptx.ClassFMA], tiled.PerClass[ptx.ClassFMA])
	}
	// Global loads: tiled stages 2 per tile instead of 2 per element.
	ratio := float64(implicit.PerClass[ptx.ClassLoad]) / float64(tiled.PerClass[ptx.ClassLoad])
	if ratio < 8 {
		t.Errorf("tiled lowering should cut global loads by about the tile size, got %.1fx", ratio)
	}
	if tiled.PerClass[ptx.ClassLoadShared] == 0 || tiled.PerClass[ptx.ClassSync] == 0 {
		t.Error("tiled kernel must execute shared accesses and barriers")
	}
}

// TestLoopIterationReporting: the analysis resolves the loop trip counts
// a static analyzer cannot (the paper's Section III-B argument).
func TestLoopIterationReporting(t *testing.T) {
	b, x := cnn.NewBuilder("looprep", cnn.Shape{H: 4, W: 4, C: 2})
	x = b.Add(cnn.ConvNoBias(4, 3, 1, cnn.Same), x) // K = 18 loop iterations
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ptxgen.Compile(m, ptxgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeProgram(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// K = 18 iterations -> 17 taken backward branches (the final
	// iteration falls through).
	if got := rep.Kernels[0].LoopIterations; got != 17 {
		t.Errorf("loop iterations = %d, want 17 (K-1 taken back branches)", got)
	}
}

// TestTraceThreadDirect exercises the trace API the detailed simulator
// consumes: the trace length equals the in-bounds per-thread step count.
func TestTraceThreadDirect(t *testing.T) {
	prog := compileSmall(t)
	for _, l := range prog.Launches {
		k := prog.Module.Kernel(l.Kernel)
		trace, err := TraceThread(k, l, 0)
		if err != nil {
			t.Fatalf("trace %s: %v", l.Kernel, err)
		}
		kr, err := AnalyzeKernelLaunch(k, l, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(trace)) != kr.PerThread {
			t.Errorf("%s: trace length %d != per-thread steps %d", l.Kernel, len(trace), kr.PerThread)
		}
	}
	// The length cap triggers.
	l := prog.Launches[0]
	k := prog.Module.Kernel(l.Kernel)
	_, err := TraceThread(k, l, 3)
	if want := "dca: trace of kernel " + strconv.Quote(k.Name) + " exceeds 3 instructions"; err == nil || err.Error() != want {
		t.Errorf("tiny maxLen: err = %v, want %q", err, want)
	}
}
