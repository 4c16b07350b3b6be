package ptxgen

import (
	"slices"
	"strings"
	"testing"

	"cnnperf/internal/cnn"
	"cnnperf/internal/ptx"
)

// smallModel builds a compact model exercising every op the generator
// lowers.
func smallModel(t *testing.T) *cnn.Model {
	t.Helper()
	b, x := cnn.NewBuilder("small", cnn.Shape{H: 16, W: 16, C: 3})
	x = b.Add(cnn.Pad2D(1), x)
	x = b.Add(cnn.ConvNoBias(8, 3, 1, cnn.Valid), x)
	x = b.Add(cnn.BN(), x)
	x = b.Add(cnn.ReLU(), x)
	branch := b.Add(cnn.DepthwiseConv(3, 1, cnn.Same), x)
	branch = b.Add(cnn.GroupNorm{Groups: 2}, branch)
	x = b.Add(cnn.Add{}, x, branch)
	se := b.Add(cnn.GlobalAvgPool(), x)
	se = b.Add(cnn.Conv(8, 1, 1, cnn.Same), se)
	se = b.Add(cnn.Sigmoid(), se)
	x = b.Add(cnn.Multiply{}, x, se)
	y := b.Add(cnn.MaxPool2D(2, 2, cnn.Valid), x)
	z := b.Add(cnn.AvgPool2D(2, 2, cnn.Valid), x)
	x = b.Add(cnn.Concat{}, y, z)
	x = b.Add(cnn.Swish(), x)
	x = b.Add(cnn.Flatten{}, x)
	x = b.Add(cnn.Dropout{Rate: 0.1}, x)
	x = b.Add(cnn.FC(10), x)
	x = b.Add(cnn.Softmax(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestCompileSmallModel(t *testing.T) {
	m := smallModel(t)
	prog, err := Compile(m, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if prog.Model != "small" {
		t.Errorf("model name %q", prog.Model)
	}
	if err := prog.Module.Validate(); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	// Shape-only nodes produce no kernels; concat emits one per input:
	// pad conv bn relu dw gn add gap conv sigmoid multiply maxpool
	// avgpool concat(x2) swish dense softmax = 18 kernels.
	if len(prog.Launches) != 18 {
		t.Errorf("launches = %d, want 18", len(prog.Launches))
	}
	if len(prog.Module.Kernels) != len(prog.Launches) {
		t.Errorf("kernels %d != launches %d", len(prog.Module.Kernels), len(prog.Launches))
	}
	for _, l := range prog.Launches {
		if l.Threads <= 0 || l.GridX <= 0 || l.BlockX != BlockSize {
			t.Errorf("%s: bad launch %+v", l.Kernel, l)
		}
		if int64(l.GridX)*int64(l.BlockX) < l.Threads {
			t.Errorf("%s: grid does not cover threads", l.Kernel)
		}
		if l.WorkingSetBytes <= 0 {
			t.Errorf("%s: working set not set", l.Kernel)
		}
		k := prog.Module.Kernel(l.Kernel)
		if k == nil {
			t.Fatalf("launch references missing kernel %s", l.Kernel)
		}
		for _, p := range k.Params {
			if _, ok := l.Params[p.Name]; !ok {
				t.Errorf("%s: param %s has no value", l.Kernel, p.Name)
			}
		}
	}
}

func TestConvKernelHasReductionLoop(t *testing.T) {
	m := smallModel(t)
	prog, err := Compile(m, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var conv *ptx.Kernel
	for _, k := range prog.Module.Kernels {
		if strings.Contains(k.Name, "conv2d") {
			conv = k
			break
		}
	}
	if conv == nil {
		t.Fatal("no conv kernel generated")
	}
	h := conv.StaticHistogram()
	if h[ptx.ClassFMA] == 0 {
		t.Error("conv kernel has no FMA")
	}
	if h[ptx.ClassBranch] < 2 {
		t.Error("conv kernel should have bounds-check and loop branches")
	}
	if h[ptx.ClassLoad] < 3 {
		t.Error("conv kernel should load params and operands")
	}
	// There must be a backward branch (loop).
	hasBack := false
	for i, in := range conv.Body {
		if ptx.IsBranch(in.Opcode) {
			tgt, err := conv.Target(in.Operands[0])
			if err != nil {
				t.Fatalf("branch target: %v", err)
			}
			if tgt <= i {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Error("conv kernel has no backward branch")
	}
}

func TestIm2colLoweringProducesTwoKernels(t *testing.T) {
	b, x := cnn.NewBuilder("convonly", cnn.Shape{H: 8, W: 8, C: 3})
	x = b.Add(cnn.Conv(4, 3, 1, cnn.Same), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Compile(m, Options{Lowering: ImplicitGEMM})
	if err != nil {
		t.Fatal(err)
	}
	im2col, err := Compile(m, Options{Lowering: Im2colGEMM})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Launches) != 1 {
		t.Errorf("implicit GEMM launches = %d, want 1", len(direct.Launches))
	}
	if len(im2col.Launches) != 2 {
		t.Errorf("im2col launches = %d, want 2", len(im2col.Launches))
	}
	if !strings.Contains(im2col.Launches[0].Kernel, "im2col") {
		t.Errorf("first launch %q should be the expansion", im2col.Launches[0].Kernel)
	}
}

func TestCompiledModuleRoundTripsThroughText(t *testing.T) {
	m := smallModel(t)
	prog, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := ptx.Print(prog.Module)
	back, err := ptx.Parse(text)
	if err != nil {
		t.Fatalf("parse generated module: %v", err)
	}
	if back.StaticInstructions() != prog.Module.StaticInstructions() {
		t.Errorf("round trip changed instruction count: %d vs %d",
			back.StaticInstructions(), prog.Module.StaticInstructions())
	}
	if len(back.Kernels) != len(prog.Module.Kernels) {
		t.Errorf("round trip changed kernel count")
	}
}

func TestCompileDeterministic(t *testing.T) {
	m := smallModel(t)
	a, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ptx.Print(a.Module) != ptx.Print(b.Module) {
		t.Error("compilation is not deterministic")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("nil model should error")
	}
}

func TestCompileTargetOption(t *testing.T) {
	m := smallModel(t)
	prog, err := Compile(m, Options{Target: "sm_70"})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Module.Target != "sm_70" {
		t.Errorf("target = %q", prog.Module.Target)
	}
	prog2, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Module.Target != "sm_61" {
		t.Errorf("default target = %q", prog2.Module.Target)
	}
}

func TestLaunchGridCoversThreadsExactly(t *testing.T) {
	// 16x16x3 pad -> threads 768, grid must be 3 blocks of 256.
	m := smallModel(t)
	prog, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Launches[0] // pad copy of the 16x16x3 input
	if l.Threads != 768 || l.GridX != 3 {
		t.Errorf("pad launch = %+v", l)
	}
}

// TestBatchScalesThreadsAndBoundsCheck: batched compilation multiplies
// launch thread counts and the kernels' bounds-check immediates, leaving
// per-thread control flow untouched.
func TestBatchScalesThreadsAndBoundsCheck(t *testing.T) {
	m := smallModel(t)
	b1, err := Compile(m, Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	b4, err := Compile(m, Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Launches) != len(b4.Launches) {
		t.Fatal("batching must not change the launch schedule")
	}
	for i := range b1.Launches {
		l1, l4 := b1.Launches[i], b4.Launches[i]
		if l4.Threads != 4*l1.Threads {
			t.Errorf("%s: threads %d != 4*%d", l4.Kernel, l4.Threads, l1.Threads)
		}
		if l4.WorkingSetBytes != 4*l1.WorkingSetBytes {
			t.Errorf("%s: working set %d != 4*%d", l4.Kernel, l4.WorkingSetBytes, l1.WorkingSetBytes)
		}
		// Same static body size (control flow unchanged).
		k1 := b1.Module.Kernels[i]
		k4 := b4.Module.Kernels[i]
		if len(k1.Body) != len(k4.Body) {
			t.Errorf("%s: static size changed with batch", l4.Kernel)
		}
	}
	// Default batch is 1.
	d, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Launches[0].Threads != b1.Launches[0].Threads {
		t.Error("default batch must be 1")
	}
}

// TestTiledGEMMLowering checks the shared-memory tiled convolution: it
// must contain shared loads/stores and barriers, execute the same FMA
// count as the implicit lowering, and issue far fewer global loads.
func TestTiledGEMMLowering(t *testing.T) {
	b, x := cnn.NewBuilder("convonly", cnn.Shape{H: 8, W: 8, C: 32})
	x = b.Add(cnn.ConvNoBias(16, 3, 1, cnn.Same), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := Compile(m, Options{Lowering: TiledGEMM})
	if err != nil {
		t.Fatal(err)
	}
	k := tiled.Module.Kernels[0]
	if !strings.Contains(k.Name, "tiled") {
		t.Errorf("kernel name %q", k.Name)
	}
	h := k.StaticHistogram()
	if h[ptx.ClassLoadShared] == 0 || h[ptx.ClassStoreShared] == 0 {
		t.Error("tiled kernel must use shared memory")
	}
	if h[ptx.ClassSync] < 2 {
		t.Error("tiled kernel must synchronise around the tile")
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("tiled kernel invalid: %v", err)
	}
	// Round-trips through text (shared opcodes parse).
	if _, err := ptx.Parse(ptx.Print(tiled.Module)); err != nil {
		t.Fatalf("tiled module does not round-trip: %v", err)
	}
}

// TestElementwiseFusion: with fusion enabled, conv+BN+ReLU chains
// collapse into one kernel whose body carries the BN fma and the ReLU
// max; launches drop accordingly and the dependent nodes are absorbed.
func TestElementwiseFusion(t *testing.T) {
	b, x := cnn.NewBuilder("fusenet", cnn.Shape{H: 8, W: 8, C: 3})
	x = b.Add(cnn.ConvNoBias(8, 3, 1, cnn.Same), x)
	x = b.Add(cnn.BN(), x)
	x = b.Add(cnn.ReLU(), x)
	x = b.Add(cnn.DepthwiseConv(3, 1, cnn.Same), x)
	x = b.Add(cnn.Swish(), x)
	x = b.Add(cnn.GlobalAvgPool(), x)
	x = b.Add(cnn.FC(4), x)
	x = b.Add(cnn.Sigmoid(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Compile(m, Options{FuseElementwise: true})
	if err != nil {
		t.Fatal(err)
	}
	// Plain: conv bn relu dw swish gap fc sigmoid = 8 launches.
	// Fused: conv+bn+relu, dw+swish, gap, fc+sigmoid = 4 launches.
	if len(plain.Launches) != 8 {
		t.Errorf("plain launches = %d, want 8", len(plain.Launches))
	}
	if len(fused.Launches) != 4 {
		t.Errorf("fused launches = %d, want 4", len(fused.Launches))
	}
	// The fused conv kernel ends at the ReLU node logically.
	if fused.Launches[0].Node != plain.Launches[2].Node {
		t.Errorf("fused kernel node = %s, want the relu node %s",
			fused.Launches[0].Node, plain.Launches[2].Node)
	}
	// Its body carries the BN fma and the ReLU max.
	k := fused.Module.Kernels[0]
	h := k.StaticHistogram()
	if h[ptx.ClassFMA] < 2 { // GEMM fma + BN fma
		t.Error("fused kernel missing the BN fma")
	}
	hasMax := false
	for _, in := range k.Body {
		if in.Opcode == "max.f32" {
			hasMax = true
		}
	}
	if !hasMax {
		t.Error("fused kernel missing the ReLU max")
	}
	if err := fused.Module.Validate(); err != nil {
		t.Fatalf("fused module invalid: %v", err)
	}
	// Fusion must not engage across multi-consumer edges.
	b2, y := cnn.NewBuilder("branchy", cnn.Shape{H: 8, W: 8, C: 3})
	y = b2.Add(cnn.ConvNoBias(8, 3, 1, cnn.Same), y)
	r := b2.Add(cnn.ReLU(), y)
	z := b2.Add(cnn.Add{}, y, r) // conv output consumed twice
	m2, err := b2.Build(z)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(m2, Options{FuseElementwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Launches) != 3 {
		t.Errorf("multi-consumer conv must not fuse: %d launches, want 3", len(p2.Launches))
	}
}

// TestFusionReducesExecutedWork: the fused program runs fewer dynamic
// instructions (no separate elementwise kernels re-loading the tensor).
func TestFusionReducesExecutedWork(t *testing.T) {
	b, x := cnn.NewBuilder("fw", cnn.Shape{H: 16, W: 16, C: 8})
	x = b.Add(cnn.ConvNoBias(16, 3, 1, cnn.Same), x)
	x = b.Add(cnn.BN(), x)
	x = b.Add(cnn.ReLU(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Compile(m, Options{FuseElementwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Module.StaticInstructions() <= fused.Module.StaticInstructions() {
		t.Error("fusion should shrink total static code (fewer prologues)")
	}
}

// TestGroupNormFusion: BiT-style conv+GN+ReLU chains fuse like BN chains.
func TestGroupNormFusion(t *testing.T) {
	b, x := cnn.NewBuilder("gnfuse", cnn.Shape{H: 8, W: 8, C: 8})
	x = b.Add(cnn.ConvNoBias(16, 3, 1, cnn.Same), x)
	x = b.Add(cnn.GroupNorm{Groups: 4}, x)
	x = b.Add(cnn.ReLU(), x)
	m, err := b.Build(x)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Compile(m, Options{FuseElementwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Launches) != 1 {
		t.Fatalf("launches = %d, want 1 fused kernel", len(fused.Launches))
	}
	h := fused.Module.Kernels[0].StaticHistogram()
	if h[ptx.ClassSFU] == 0 {
		t.Error("fused GN kernel must carry the rsqrt")
	}
	if err := fused.Module.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmittedOperandsDoNotAlias checks the operand arrays the emitter
// carves instructions from: appending to one instruction's operands
// never reaches the next one's, an operand-less instruction keeps nil
// operands, and a kernel with more operands than one array holds keeps
// every operand.
func TestEmittedOperandsDoNotAlias(t *testing.T) {
	e := newEmitter("k")
	const n = opsChunk // three operands each: past the first array
	for i := 0; i < n; i++ {
		e.emit("add.s32", e.r(), imm(int64(i)), "1")
	}
	e.emit("ret")
	body := e.finish().Body
	body[0].Operands = append(body[0].Operands, "%r0")
	for i := 1; i < n; i++ {
		if want := []string{rRegs.name(i + 1), imm(int64(i)), "1"}; !slices.Equal(body[i].Operands, want) {
			t.Fatalf("instruction %d: operands %q, want %q", i, body[i].Operands, want)
		}
	}
	if body[n].Operands != nil {
		t.Errorf("ret emitted with operands %q", body[n].Operands)
	}
}
