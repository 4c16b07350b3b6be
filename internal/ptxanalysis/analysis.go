// Package ptxanalysis is the static-analysis framework over parsed PTX
// kernels: dominator trees and loop nesting on the shared CFG,
// live-variable dataflow over the register ids of one decode per kernel
// (ptx.DecodeKernel), static register pressure and instruction-mix
// profiling, and a lint diagnostics engine whose error-severity
// findings gate the dynamic code analysis. The per-module summary also
// feeds extra static predictors into the ML feature vector (Ardalani et
// al. and BB-ML show static program features alone carry strong
// predictive signal; see PAPERS.md).
package ptxanalysis

import (
	"context"
	"fmt"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
	"cnnperf/internal/ptxanalysis/absint"
)

// KernelAnalysis bundles the static-analysis results of one kernel
// that outlive the pass: what the DCA, the static features and the lint
// read, and what the cache keeps.
type KernelAnalysis struct {
	// Kernel is the analysed kernel's name.
	Kernel string
	// Static is the body length in instructions.
	Static int
	// CFG is the control-flow graph (nil for empty kernels).
	CFG *cfg.Graph
	// Loops are the natural loops, outermost depth 1.
	Loops []Loop
	// MaxLoopDepth is the deepest loop nesting (0 for loop-free kernels).
	MaxLoopDepth int
	// Pressure is the static register pressure.
	Pressure Pressure
	// Mix is the static instruction-mix profile.
	Mix Mix
	// Blocks are the per-basic-block static feature vectors (nil for
	// empty kernels), parallel to CFG.Blocks.
	Blocks []BlockFeatures
	// Diags are the lint findings, errors first.
	Diags []Diag
}

// AnalyzeKernel runs the full static analysis of one kernel. Kernels
// with an empty body yield a minimal analysis carrying only the
// empty-kernel diagnostic; structurally broken bodies (branches to
// unresolved labels) return an error.
func AnalyzeKernel(k *ptx.Kernel) (*KernelAnalysis, error) {
	return AnalyzeKernelContext(context.Background(), k)
}

// AnalyzeKernelContext is AnalyzeKernel recording the abstract
// interpretation as an "absint" span when ctx carries a tracer; the
// fixpoint iteration count additionally feeds the absint_iterations
// histogram when a metrics registry is wired in (RegisterMetrics).
// Tracing never changes the computed analysis.
func AnalyzeKernelContext(ctx context.Context, k *ptx.Kernel) (*KernelAnalysis, error) {
	if k == nil {
		return nil, fmt.Errorf("ptxanalysis: nil kernel")
	}
	a := &KernelAnalysis{Kernel: k.Name, Static: len(k.Body)}
	if len(k.Body) == 0 {
		a.Diags = []Diag{{
			Severity: SevWarning, Kernel: k.Name, Line: -1,
			Code: CodeEmptyKernel, Msg: "kernel body has no instructions",
		}}
		a.Mix = Mix{PerClass: make(map[ptx.Class]int), CoalescedFraction: 1}
		return a, nil
	}
	g, err := cfg.Build(k)
	if err != nil {
		return nil, fmt.Errorf("ptxanalysis: %w", err)
	}
	d := ptx.DecodeKernel(k)
	dom := Dominators(g)
	a.CFG = g
	a.Loops = NaturalLoops(g, dom)
	for _, l := range a.Loops {
		if l.Depth > a.MaxLoopDepth {
			a.MaxLoopDepth = l.Depth
		}
	}
	p := &kernelPasses{d: d, g: g, dom: dom, postDom: PostDominators(g), loops: a.Loops, live: computeLiveness(d, g)}
	a.Pressure = computePressure(d, g, p.live)
	a.Mix = computeMix(d)
	_, span := obs.Start(ctx, "absint", obs.String("kernel", k.Name))
	p.abs = absint.AnalyzeDecoded(d, g)
	span.SetAttr(obs.Int("iterations", p.abs.Iterations), obs.Int("facts", p.abs.Facts()),
		obs.Int("widenings", p.abs.Widenings))
	span.End()
	observeAbsintIterations(p.abs.Iterations)
	a.Blocks = computeBlockFeatures(p)
	a.Diags = p.lint()
	return a, nil
}

// kernelPasses holds the per-kernel pass results that the lint and the
// block features join; none of it outlives AnalyzeKernelContext.
type kernelPasses struct {
	d            *ptx.DecodedKernel
	g            *cfg.Graph
	dom, postDom *DomTree
	loops        []Loop
	live         *Liveness
	abs          *absint.Result
}

// ModuleAnalysis aggregates the per-kernel analyses of one module with
// size-weighted summary statistics for the feature vector.
type ModuleAnalysis struct {
	// Kernels are the per-kernel analyses in module order.
	Kernels []*KernelAnalysis
	// Digests are the per-kernel content digests, parallel to Kernels
	// (zero without a cache), from which the DCA derives its keys.
	Digests []analysiscache.Digest
	// Diags concatenates every kernel's diagnostics.
	Diags []Diag
	// MaxRegPressure is the highest total register pressure of any kernel.
	MaxRegPressure int
	// MaxPredPressure is the highest predicate-register pressure.
	MaxPredPressure int
	// MaxLoopDepth is the deepest loop nesting in the module.
	MaxLoopDepth int
	// MeanBranchDensity, FPFraction, MemFraction, SharedFraction and
	// CoalescedFraction are static-instruction-weighted means over the
	// kernels.
	MeanBranchDensity  float64
	FPFraction         float64
	MemFraction        float64
	SharedFraction     float64
	CoalescedFraction  float64
	StaticInstructions int
}

// AnalyzeModule analyses every kernel of the module.
func AnalyzeModule(m *ptx.Module) (*ModuleAnalysis, error) {
	return AnalyzeModuleCachedContext(context.Background(), m, nil)
}

// AnalyzeModuleCachedContext is AnalyzeModule memoizing per-kernel
// analyses in the given content-addressed cache: a kernel body already
// analysed — under any name, in any module — is not re-analysed. A nil
// cache disables memoization. The per-kernel abstract interpretation is
// traced, and ctx is checked between kernels.
func AnalyzeModuleCachedContext(ctx context.Context, m *ptx.Module, c *analysiscache.Cache) (*ModuleAnalysis, error) {
	if m == nil {
		return nil, fmt.Errorf("ptxanalysis: nil module")
	}
	out := &ModuleAnalysis{}
	var wBranch, wFP, wMem, wShared, wCoal float64
	for _, k := range m.Kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, d, err := AnalyzeKernelCached(ctx, k, c)
		if err != nil {
			return nil, err
		}
		out.Kernels = append(out.Kernels, a)
		out.Digests = append(out.Digests, d)
		out.Diags = append(out.Diags, a.Diags...)
		if a.Pressure.Total > out.MaxRegPressure {
			out.MaxRegPressure = a.Pressure.Total
		}
		if p := a.Pressure.ByType[".pred"]; p > out.MaxPredPressure {
			out.MaxPredPressure = p
		}
		if a.MaxLoopDepth > out.MaxLoopDepth {
			out.MaxLoopDepth = a.MaxLoopDepth
		}
		w := float64(a.Static)
		out.StaticInstructions += a.Static
		wBranch += w * a.Mix.BranchDensity
		wFP += w * a.Mix.FPFraction
		wMem += w * a.Mix.MemFraction
		wShared += w * a.Mix.SharedFraction
		wCoal += w * a.Mix.CoalescedFraction
	}
	if out.StaticInstructions > 0 {
		n := float64(out.StaticInstructions)
		out.MeanBranchDensity = wBranch / n
		out.FPFraction = wFP / n
		out.MemFraction = wMem / n
		out.SharedFraction = wShared / n
		out.CoalescedFraction = wCoal / n
	}
	return out, nil
}

// AnalyzeKernelCached memoizes AnalyzeKernelContext in c under the
// kernel's content digest, which it returns for deriving further keys
// (nil c: no memo, zero digest). It is the one per-kernel analysis that
// the static features, the lint and the DCA all read. On a hit from a
// content-identical kernel under a different name, the analysis is
// shallow-copied with its identity re-stamped; the name-free structures
// (CFG, loops, the block features) are shared read-only. The memo is
// memory-only: no disk tier persists the analysis, which a fresh
// process derives again from the kernel text.
func AnalyzeKernelCached(ctx context.Context, k *ptx.Kernel, c *analysiscache.Cache) (*KernelAnalysis, analysiscache.Digest, error) {
	if c == nil {
		a, err := AnalyzeKernelContext(ctx, k)
		return a, analysiscache.Digest{}, err
	}
	d := analysiscache.NewDigest(k)
	v, _, err := c.GetOrCompute(d.Key("ptxa"), func() (any, error) {
		return AnalyzeKernelContext(ctx, k)
	})
	if err != nil {
		return nil, d, err
	}
	a := v.(*KernelAnalysis)
	if a.Kernel == k.Name {
		return a, d, nil
	}
	cp := *a
	cp.Kernel = k.Name
	cp.Diags = append([]Diag(nil), a.Diags...)
	for i := range cp.Diags {
		cp.Diags[i].Kernel = k.Name
	}
	return &cp, d, nil
}

// FeatureNames names the static predictors Features returns, in order.
// They extend the paper's feature vector with the program-structure
// signals of the static-analysis literature (register pressure,
// control-flow shape, instruction mix, access-pattern quality).
var FeatureNames = []string{
	"static_reg_pressure",
	"static_pred_pressure",
	"static_max_loop_depth",
	"static_branch_density",
	"static_fp_fraction",
	"static_mem_fraction",
	"static_shared_fraction",
	"static_coalesced_fraction",
}

// Features returns the static predictor vector in FeatureNames order.
func (ma *ModuleAnalysis) Features() []float64 {
	return []float64{
		float64(ma.MaxRegPressure),
		float64(ma.MaxPredPressure),
		float64(ma.MaxLoopDepth),
		ma.MeanBranchDensity,
		ma.FPFraction,
		ma.MemFraction,
		ma.SharedFraction,
		ma.CoalescedFraction,
	}
}
