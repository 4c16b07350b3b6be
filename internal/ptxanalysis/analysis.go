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
	"strings"
	"sync"
	"sync/atomic"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptx/cfg"
	"cnnperf/internal/ptxanalysis/absint"
)

// The static analysis of a kernel has two levels. The gate level is
// what the dynamic code analysis reads: the CFG, the natural loops and
// the error diagnostics its gate rejects on (use-before-def from the
// liveness solution; a body the CFG build cannot partition fails the
// analysis). The full level adds what the lint and the static features
// read: post-dominators, register pressure, the instruction mix, the
// abstract interpretation, the block features and every lint rule. The
// full level is computed from the gate level's passes, never beside
// them.

// KernelGate is the gate level of one kernel's static analysis. It
// holds nothing of the decoded body or the liveness sets, so a cached
// gate pins no request text.
type KernelGate struct {
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
	// Errors are the error-severity diagnostics, in the order the full
	// level's Diags list them.
	Errors []Diag
}

// KernelAnalysis is the full level of one kernel's static analysis:
// the gate level plus what the lint, the static features and the block
// features read.
type KernelAnalysis struct {
	KernelGate
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
	a, _, err := analyzeKernel(ctx, k)
	return a, err
}

// analyzeKernel is AnalyzeKernelContext also returning the body it
// decoded, nil for an empty body.
func analyzeKernel(ctx context.Context, k *ptx.Kernel) (*KernelAnalysis, *ptx.DecodedKernel, error) {
	if k == nil {
		return nil, nil, fmt.Errorf("ptxanalysis: nil kernel")
	}
	if len(k.Body) == 0 {
		return emptyAnalysis(k.Name), nil, nil
	}
	p, err := gatePasses(k, k.Name)
	if err != nil {
		return nil, nil, err
	}
	return p.full(ctx, p.gate()), p.d, nil
}

// AnalyzeKernelGate runs the gate level of one kernel's static
// analysis: the part the dynamic code analysis reads. Its fields and
// its error equal those of AnalyzeKernel.
func AnalyzeKernelGate(k *ptx.Kernel) (*KernelGate, error) {
	g, _, _, err := kernelGate(k, nil)
	return g, err
}

// emptyAnalysis is the full level of a kernel with an empty body.
func emptyAnalysis(name string) *KernelAnalysis {
	return &KernelAnalysis{
		KernelGate: KernelGate{Kernel: name},
		Mix:        Mix{PerClass: make(map[ptx.Class]int), CoalescedFraction: 1},
		Diags: []Diag{{
			Severity: SevWarning, Kernel: name, Line: -1,
			Code: CodeEmptyKernel, Msg: "kernel body has no instructions",
		}},
	}
}

// kernelPasses holds the per-kernel pass results that the gate, the
// lint and the block features join. None of it outlives the analysis:
// the decoded body and the liveness sets are what a cached entry must
// not hold.
type kernelPasses struct {
	name         string // the kernel name every diagnostic carries
	d            *ptx.DecodedKernel
	g            *cfg.Graph
	dom, postDom *DomTree
	loops        []Loop
	live         *Liveness
	abs          *absint.Result
}

// gatePasses runs the gate level's passes over a non-empty body: the
// CFG build, dominators, natural loops, the decode and liveness.
func gatePasses(k *ptx.Kernel, name string) (*kernelPasses, error) {
	g, err := cfg.Build(k)
	if err != nil {
		return nil, fmt.Errorf("ptxanalysis: %w", err)
	}
	dom := Dominators(g)
	return livePasses(k, name, g, dom, NaturalLoops(g, dom)), nil
}

// livePasses decodes k and solves its liveness over the CFG g.
func livePasses(k *ptx.Kernel, name string, g *cfg.Graph, dom *DomTree, loops []Loop) *kernelPasses {
	d := ptx.DecodeKernel(k)
	return &kernelPasses{name: name, d: d, g: g, dom: dom, loops: loops, live: computeLiveness(d, g)}
}

// gate assembles the gate level from the passes.
func (p *kernelPasses) gate() *KernelGate {
	gt := &KernelGate{
		Kernel: p.name, Static: len(p.d.Kernel.Body), CFG: p.g, Loops: p.loops,
		Errors: p.useBeforeDef(),
	}
	for _, l := range p.loops {
		gt.MaxLoopDepth = max(gt.MaxLoopDepth, l.Depth)
	}
	return gt
}

// full completes the gate level gt, built from these passes, to the
// full analysis, tracing the abstract interpretation.
func (p *kernelPasses) full(ctx context.Context, gt *KernelGate) *KernelAnalysis {
	a := &KernelAnalysis{KernelGate: *gt}
	p.postDom = PostDominators(p.g)
	a.Pressure = computePressure(p.d, p.g, p.live)
	a.Mix = computeMix(p.d)
	_, span := obs.Start(ctx, "absint", obs.String("kernel", p.name))
	p.abs = absint.AnalyzeDecoded(p.d, p.g)
	span.SetAttr(obs.Int("iterations", p.abs.Iterations), obs.Int("facts", p.abs.Facts()),
		obs.Int("widenings", p.abs.Widenings))
	span.End()
	observeAbsintIterations(p.abs.Iterations)
	a.Blocks = computeBlockFeatures(p)
	a.Diags = p.lint(gt.Errors)
	return a
}

// ModuleGate is the gate level of a module's static analysis: what the
// dynamic code analysis reads.
type ModuleGate struct {
	// Kernels are the per-kernel gates in module order.
	Kernels []*KernelGate
	// Digests are the per-kernel content digests, parallel to Kernels
	// (zero without a cache), from which the DCA derives its keys.
	Digests []analysiscache.Digest
	// Decoded are the kernel bodies this call decoded, parallel to
	// Kernels: nil where the gate came from the cache. They belong to
	// the call, never to a cache entry, so the DCA of the same call
	// compiles from them instead of decoding again.
	Decoded []*ptx.DecodedKernel
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

// Gate returns the gate level of the module analysis, sharing its
// per-kernel values. It carries no decoded bodies.
func (ma *ModuleAnalysis) Gate() *ModuleGate {
	mg := &ModuleGate{Kernels: make([]*KernelGate, len(ma.Kernels)), Digests: ma.Digests}
	for i, a := range ma.Kernels {
		mg.Kernels[i] = &a.KernelGate
	}
	return mg
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
	return analyzeModule(ctx, m, c, nil)
}

// AnalyzeModuleGatedCachedContext is AnalyzeModuleCachedContext also
// returning the gate level of the analysis, whose Decoded holds the
// kernel bodies this call decoded, as AnalyzeModuleGateCachedContext
// hands them over. The module analysis holds none of them.
func AnalyzeModuleGatedCachedContext(ctx context.Context, m *ptx.Module, c *analysiscache.Cache) (*ModuleAnalysis, *ModuleGate, error) {
	var decoded []*ptx.DecodedKernel
	if m != nil {
		decoded = make([]*ptx.DecodedKernel, 0, len(m.Kernels))
	}
	ma, err := analyzeModule(ctx, m, c, &decoded)
	if err != nil {
		return nil, nil, err
	}
	gate := ma.Gate()
	gate.Decoded = decoded
	return ma, gate, nil
}

// analyzeModule is AnalyzeModuleCachedContext appending, when decoded
// is not nil, the body each kernel's analysis decoded in this call to
// it (nil where it decoded none).
func analyzeModule(ctx context.Context, m *ptx.Module, c *analysiscache.Cache, decoded *[]*ptx.DecodedKernel) (*ModuleAnalysis, error) {
	if m == nil {
		return nil, fmt.Errorf("ptxanalysis: nil module")
	}
	out := &ModuleAnalysis{}
	var wBranch, wFP, wMem, wShared, wCoal float64
	for _, k := range m.Kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, dec, d, err := analyzeKernelCached(ctx, k, c)
		if err != nil {
			return nil, err
		}
		if decoded != nil {
			*decoded = append(*decoded, dec)
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

// AnalyzeModuleGateCachedContext is AnalyzeModuleCachedContext at the
// gate level: it runs, or reads from c, only what the dynamic code
// analysis reads. Its failures are AnalyzeModuleCachedContext's.
func AnalyzeModuleGateCachedContext(ctx context.Context, m *ptx.Module, c *analysiscache.Cache) (*ModuleGate, error) {
	if m == nil {
		return nil, fmt.Errorf("ptxanalysis: nil module")
	}
	out := &ModuleGate{
		Kernels: make([]*KernelGate, 0, len(m.Kernels)),
		Digests: make([]analysiscache.Digest, 0, len(m.Kernels)),
		Decoded: make([]*ptx.DecodedKernel, 0, len(m.Kernels)),
	}
	for _, k := range m.Kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, dec, d, err := kernelGate(k, c)
		if err != nil {
			return nil, err
		}
		out.Kernels = append(out.Kernels, g)
		out.Digests = append(out.Digests, d)
		out.Decoded = append(out.Decoded, dec)
	}
	return out, nil
}

// memo is the one cache entry per kernel body, under the "ptxa" key. Its
// gate level is computed when the entry is created; its full level is
// completed in place by the first consumer that asks for it (or at
// creation, when that consumer created the entry). Every
// content-identical kernel shares the entry, so the full level is
// computed at most once per entry whichever name asks.
type memo struct {
	gate *KernelGate
	mu   sync.Mutex // serializes the completion
	full atomic.Pointer[KernelAnalysis]
}

// complete returns the full level, computing it from k — a kernel with
// the entry's body — on first use, and then also the body it decoded,
// which the entry does not hold. A completion that panics leaves the
// entry at the gate level for the next consumer to retry.
func (m *memo) complete(ctx context.Context, k *ptx.Kernel) (*KernelAnalysis, *ptx.DecodedKernel) {
	if a := m.full.Load(); a != nil {
		return a, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a := m.full.Load(); a != nil {
		return a, nil
	}
	var a *KernelAnalysis
	var dec *ptx.DecodedKernel
	if m.gate.CFG == nil {
		a = emptyAnalysis(m.gate.Kernel)
	} else {
		p := livePasses(k, m.gate.Kernel, m.gate.CFG, Dominators(m.gate.CFG), m.gate.Loops)
		a, dec = p.full(ctx, m.gate), p.d
	}
	m.full.Store(a)
	return a, dec
}

// memoOf returns k's cache entry in c and k's content digest, creating
// the entry on a miss — completed too when full is set, so a
// full-level miss runs each pass once — and then also returning the
// body it decoded, which the entry does not hold. The entry's strings
// are cloned: a kernel parsed out of a request body must not pin the
// body.
func memoOf(ctx context.Context, k *ptx.Kernel, c *analysiscache.Cache, full bool) (*memo, *ptx.DecodedKernel, analysiscache.Digest, error) {
	d := analysiscache.NewDigest(k)
	var dec *ptx.DecodedKernel
	// GetOrCompute runs the closure on this goroutine, within this call.
	v, _, err := c.GetOrCompute(d.Key("ptxa"), func() (any, error) {
		name := strings.Clone(k.Name)
		if len(k.Body) == 0 {
			return &memo{gate: &KernelGate{Kernel: name}}, nil
		}
		p, err := gatePasses(k, name)
		if err != nil {
			return nil, err
		}
		dec = p.d
		m := &memo{gate: p.gate()}
		if full {
			m.full.Store(p.full(ctx, m.gate))
		}
		return m, nil
	})
	if err != nil {
		return nil, nil, d, err
	}
	return v.(*memo), dec, d, nil
}

// AnalyzeKernelCached memoizes AnalyzeKernelContext in c under the
// kernel's content digest, which it returns for deriving further keys
// (nil c: no memo, zero digest). It is the one per-kernel analysis that
// the static features and the lint read; the DCA reads the gate level
// of the same entry (AnalyzeKernelGateCached). On a hit from a
// content-identical kernel under a different name, the analysis is
// shallow-copied with its identity re-stamped; the name-free structures
// (CFG, loops, the block features) are shared read-only. The memo is
// memory-only: no disk tier persists the analysis, which a fresh
// process derives again from the kernel text.
func AnalyzeKernelCached(ctx context.Context, k *ptx.Kernel, c *analysiscache.Cache) (*KernelAnalysis, analysiscache.Digest, error) {
	a, _, d, err := analyzeKernelCached(ctx, k, c)
	return a, d, err
}

// analyzeKernelCached is AnalyzeKernelCached also returning the body it
// decoded: nil when the full level came from c or the body is empty.
func analyzeKernelCached(ctx context.Context, k *ptx.Kernel, c *analysiscache.Cache) (*KernelAnalysis, *ptx.DecodedKernel, analysiscache.Digest, error) {
	if c == nil || k == nil {
		a, dec, err := analyzeKernel(ctx, k)
		return a, dec, analysiscache.Digest{}, err
	}
	m, dec, d, err := memoOf(ctx, k, c, true)
	if err != nil {
		return nil, nil, d, err
	}
	a, completed := m.complete(ctx, k)
	if dec == nil {
		dec = completed
	}
	if a.Kernel == k.Name {
		return a, dec, d, nil
	}
	cp := *a
	cp.KernelGate = *a.KernelGate.renamed(k.Name)
	cp.Diags = restamp(a.Diags, k.Name)
	return &cp, dec, d, nil
}

// AnalyzeKernelGateCached is AnalyzeKernelCached at the gate level: on a
// miss it creates the kernel's entry with only the gate level computed,
// which a later full-level consumer completes in place.
func AnalyzeKernelGateCached(k *ptx.Kernel, c *analysiscache.Cache) (*KernelGate, analysiscache.Digest, error) {
	g, _, d, err := kernelGate(k, c)
	return g, d, err
}

// kernelGate is AnalyzeKernelGateCached also returning the body it
// decoded: nil when the gate came from c or the body is empty.
func kernelGate(k *ptx.Kernel, c *analysiscache.Cache) (*KernelGate, *ptx.DecodedKernel, analysiscache.Digest, error) {
	if k == nil {
		return nil, nil, analysiscache.Digest{}, fmt.Errorf("ptxanalysis: nil kernel")
	}
	if c == nil {
		if len(k.Body) == 0 {
			return &KernelGate{Kernel: k.Name}, nil, analysiscache.Digest{}, nil
		}
		p, err := gatePasses(k, k.Name)
		if err != nil {
			return nil, nil, analysiscache.Digest{}, err
		}
		return p.gate(), p.d, analysiscache.Digest{}, nil
	}
	m, dec, d, err := memoOf(context.Background(), k, c, false)
	if err != nil {
		return nil, nil, d, err
	}
	return m.gate.renamed(k.Name), dec, d, nil
}

// renamed returns g as seen from a content-identical kernel named name:
// g itself when the names match, else a copy with its identity
// re-stamped.
func (g *KernelGate) renamed(name string) *KernelGate {
	if g.Kernel == name {
		return g
	}
	cp := *g
	cp.Kernel = name
	cp.Errors = restamp(g.Errors, name)
	return &cp
}

// restamp copies diags with every kernel name set to name.
func restamp(diags []Diag, name string) []Diag {
	out := append([]Diag(nil), diags...)
	for i := range out {
		out[i].Kernel = name
	}
	return out
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
