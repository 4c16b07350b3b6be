package ptxgen

import (
	"fmt"
	"strconv"

	"cnnperf/internal/cnn"
	"cnnperf/internal/ptx"
)

// BlockSize is the fixed thread-block size of all generated launches.
const BlockSize = 256

// ConvLowering selects how convolutions are lowered to kernels.
type ConvLowering int

const (
	// ImplicitGEMM generates one fused kernel per convolution with the
	// GEMM reduction inlined (one thread per output element).
	ImplicitGEMM ConvLowering = iota
	// Im2colGEMM generates an explicit im2col expansion kernel followed
	// by a GEMM kernel, like classic cuDNN paths.
	Im2colGEMM
	// TiledGEMM generates a shared-memory tiled convolution kernel:
	// the reduction is staged through on-chip shared memory in
	// TileSize-element tiles with barrier synchronisation, cutting the
	// global-memory traffic by roughly the tile size.
	TiledGEMM
)

// TileSize is the shared-memory tile extent of the TiledGEMM lowering.
const TileSize = 16

// Options configures code generation.
type Options struct {
	// Lowering selects the convolution lowering strategy.
	Lowering ConvLowering
	// Target is the SM target string (default "sm_61").
	Target string
	// Batch is the inference batch size (default 1). Launch thread
	// counts and activation working sets scale with it; per-thread
	// control flow does not.
	Batch int
	// FuseElementwise folds single-consumer BatchNorm and simple
	// activation nodes into their producer kernel (the conv+BN+ReLU
	// fusion every real framework performs — the generated kernels are
	// even named fusion_N in XLA style). Fewer launches, less memory
	// traffic.
	FuseElementwise bool
}

func (o Options) batch() int64 {
	if o.Batch <= 0 {
		return 1
	}
	return int64(o.Batch)
}

// Launch records how one generated kernel is executed: grid dimensions
// and scalar parameter values, plus workload metadata the GPU simulator
// uses for its memory model.
type Launch struct {
	// Kernel is the kernel entry name.
	Kernel string
	// GridX is the number of thread blocks.
	GridX int
	// BlockX is the threads per block (BlockSize).
	BlockX int
	// Threads is the number of useful (in-bounds) threads.
	Threads int64
	// Params maps kernel parameter names to their runtime values
	// (pointers carry synthetic non-zero addresses).
	Params map[string]int64
	// WorkingSetBytes approximates the bytes of distinct memory the
	// launch touches (inputs + outputs + weights).
	WorkingSetBytes int64
	// Node is the graph node this launch implements.
	Node string
}

// Program is the compilation result for one model.
type Program struct {
	// Model is the compiled model's name.
	Model string
	// Module holds every generated kernel.
	Module *ptx.Module
	// Launches is the execution schedule in graph order.
	Launches []Launch
}

// Compile lowers the model to PTX. Shape-only nodes (input, flatten,
// dropout) generate no kernels; everything else becomes at least one
// kernel whose control flow depends on the layer configuration.
func Compile(m *cnn.Model, opts Options) (*Program, error) {
	if m == nil {
		return nil, fmt.Errorf("ptxgen: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("ptxgen: %w", err)
	}
	target := opts.Target
	if target == "" {
		target = "sm_61"
	}
	p := &Program{
		Model:  m.Name,
		Module: &ptx.Module{Version: "6.0", Target: target, AddressSize: 64},
	}
	g := &generator{
		prog: p, opts: opts,
		fused:         map[string]bool{},
		consumers:     map[string]int{},
		consumerNodes: map[string][]*cnn.Node{},
	}
	for _, n := range m.Nodes() {
		for _, in := range n.Inputs {
			g.consumers[in.Name]++
			g.consumerNodes[in.Name] = append(g.consumerNodes[in.Name], n)
		}
	}
	for _, n := range m.Nodes() {
		if g.fused[n.Name] {
			continue // folded into its producer's kernel
		}
		if err := g.lower(n); err != nil {
			return nil, fmt.Errorf("ptxgen: model %s node %s: %w", m.Name, n.Name, err)
		}
	}
	if err := p.Module.Validate(); err != nil {
		return nil, fmt.Errorf("ptxgen: generated invalid module: %w", err)
	}
	return p, nil
}

// generator carries compilation state.
type generator struct {
	prog          *Program
	opts          Options
	kernels       int
	fused         map[string]bool        // nodes folded into a producer kernel
	consumers     map[string]int         // consumer count per node
	consumerNodes map[string][]*cnn.Node // consumer nodes per node
}

// newEmitter creates a batch-aware kernel emitter for a node.
func (g *generator) newEmitter(node *cnn.Node, suffix string) *emitter {
	e := newEmitter(g.kernelName(node, suffix))
	e.batch = g.opts.batch()
	return e
}

// kernelName mints a unique fusion-style kernel name for a node.
func (g *generator) kernelName(node *cnn.Node, suffix string) string {
	g.kernels++
	name := "fusion_" + strconv.Itoa(g.kernels) + "_" + node.Op.Kind()
	if suffix != "" {
		name += "_" + suffix
	}
	return name
}

// addLaunch registers a finished kernel and its launch. The thread count
// and activation working set scale with the batch size.
func (g *generator) addLaunch(k *ptx.Kernel, node *cnn.Node, threads int64, workingSet int64, params map[string]int64) {
	batch := g.opts.batch()
	threads *= batch
	workingSet *= batch
	if params == nil {
		params = map[string]int64{}
	}
	// Synthetic base addresses for pointer parameters not set by the
	// caller: distinct non-zero values aid debugging.
	for i, p := range k.Params {
		if _, ok := params[p.Name]; !ok {
			params[p.Name] = int64(0x1000_0000 + 0x100_0000*i)
		}
	}
	grid := int((threads + BlockSize - 1) / BlockSize)
	if grid < 1 {
		grid = 1
	}
	g.prog.Module.Kernels = append(g.prog.Module.Kernels, k)
	g.prog.Launches = append(g.prog.Launches, Launch{
		Kernel:          k.Name,
		GridX:           grid,
		BlockX:          BlockSize,
		Threads:         threads,
		Params:          params,
		WorkingSetBytes: workingSet,
		Node:            node.Name,
	})
}

// lower dispatches on the node's op type.
func (g *generator) lower(n *cnn.Node) error {
	switch op := n.Op.(type) {
	case cnn.InputOp, cnn.Flatten, cnn.Dropout:
		return nil // shape-only: no kernel
	case cnn.Conv2D:
		return g.lowerConv(n, op)
	case cnn.DepthwiseConv2D:
		return g.lowerDepthwise(n, op)
	case cnn.Dense:
		return g.lowerDense(n, op)
	case cnn.Pool2D:
		return g.lowerPool(n, op)
	case cnn.GlobalPool2D:
		return g.lowerGlobalPool(n, op)
	case cnn.BatchNorm:
		return g.lowerBatchNorm(n)
	case cnn.GroupNorm:
		return g.lowerGroupNorm(n)
	case cnn.Activation:
		return g.lowerActivation(n, op)
	case cnn.Add:
		return g.lowerAdd(n)
	case cnn.Multiply:
		return g.lowerMultiply(n)
	case cnn.Concat:
		return g.lowerConcat(n)
	case cnn.ZeroPad2D:
		return g.lowerCopy(n, "pad")
	default:
		return fmt.Errorf("no lowering for op %q", n.Op.Kind())
	}
}

// inShape returns the i-th input shape of a node.
func inShape(n *cnn.Node, i int) cnn.Shape { return n.Inputs[i].OutShape() }

// bytesOf converts an element count to fp32 bytes.
func bytesOf(elems int64) int64 { return 4 * elems }
