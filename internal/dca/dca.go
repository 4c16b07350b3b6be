package dca

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
)

// KernelReport is the analysis result for one kernel launch.
type KernelReport struct {
	// Kernel is the kernel name.
	Kernel string
	// Node is the CNN graph node the kernel implements.
	Node string
	// Static is the static instruction count of the kernel body.
	Static int
	// SliceSize is the number of instructions in the control slice.
	SliceSize int
	// SliceFraction is SliceSize / Static.
	SliceFraction float64
	// DepEdges is |E| of the kernel's dependency graph.
	DepEdges int
	// PerThread is the dynamic instruction count of one in-bounds thread.
	PerThread int64
	// LoopIterations is the loop-trip total of one in-bounds thread
	// (taken backward branches) — what the dynamic code analysis
	// resolves that a static count cannot.
	LoopIterations int64
	// Executed is the dynamic instruction count over all launched threads.
	Executed int64
	// PerClass histograms Executed by instruction class.
	PerClass map[ptx.Class]int64
	// WorkingSetBytes is copied from the launch for the timing model.
	WorkingSetBytes int64
	// Threads is the number of in-bounds threads.
	Threads int64
	// BlockVisits is the launch-total execution count per CFG basic
	// block (cfg.Build block order, shared with ptxanalysis), scaled by
	// thread population like Executed. Populated only under
	// Options.BlockCounts; without it consumers fall back to unweighted
	// static block features.
	BlockVisits []int64
}

// Report aggregates the dynamic code analysis over a whole program (one
// CNN): the total number of executed PTX instructions the paper uses as
// the p predictor, plus per-class totals consumed by the GPU simulator.
type Report struct {
	// Model is the analysed model's name.
	Model string
	// Kernels are the per-launch reports in execution order.
	Kernels []KernelReport
	// Executed is the total dynamic instruction count.
	Executed int64
	// PerClass histograms Executed by class.
	PerClass map[ptx.Class]int64
	// AnalysisTime is the wall-clock cost of the analysis (the paper's
	// t_dca).
	AnalysisTime time.Duration
	// MeanSliceFraction is the average control-slice share, showing how
	// little of the code the slicing interpreter had to evaluate.
	MeanSliceFraction float64
}

// Options configures the analysis.
type Options struct {
	// Exec tunes the abstract executor.
	Exec ExecOptions
	// Cache memoizes per-kernel analysis results content-addressed by
	// the kernel's canonical text and launch configuration, so identical
	// kernels — within one model or across the whole zoo — are sliced
	// and abstractly executed exactly once. Nil disables memoization.
	Cache *analysiscache.Cache
	// BlockCounts additionally records per-basic-block execution counts
	// in KernelReport.BlockVisits (the dynamic weights of the per-block
	// static features). Off by default: the visit profile costs one
	// counter array per representative thread.
	BlockCounts bool
	// Static is the caller's static pass over the program's module
	// under the same Cache, whose per-kernel gates and digests
	// AnalyzeProgram reads. Nil: it runs the gate level of each launched
	// kernel itself.
	Static *ptxanalysis.ModuleGate
}

// kernelFacts is what every launch of one kernel shares: the gate level
// of its static analysis (ptxanalysis.AnalyzeKernelGateCached), read by
// the gate, loop detection and the block-visit collapse; its digest,
// keying every cache entry; and the launch-independent artifacts built
// by prepare.
type kernelFacts struct {
	k   *ptx.Kernel
	a   *ptxanalysis.KernelGate
	d   analysiscache.Digest // zero without a cache
	err error                // the analysis failure: a structurally broken body
	// dec is k's body as the static pass of this call decoded it, nil
	// when that pass read its gate from the cache. prepare reads it
	// and drops it.
	dec *ptx.DecodedKernel

	prepared bool
	cfg      *CFG
	prepErr  error // the structural CFG or compile failure, reported per launch
	g        *DepGraph
	slice    *ControlSlice
	ck       *CompiledKernel // the bytecode every launch of the kernel executes
}

// gate rejects kernels whose static analysis reports error-severity
// diagnostics (use-before-def registers, unresolved branch targets):
// abstractly executing them would compute garbage or fail midway.
func (f *kernelFacts) gate() error {
	var errs []ptxanalysis.Diag
	if f.err != nil {
		errs = ptxanalysis.Malformed(f.k, f.err)
	} else {
		errs = f.a.Errors
	}
	if len(errs) > 0 {
		return fmt.Errorf("dca: kernel %s rejected by static analysis: %s (%d error diagnostics)",
			f.k.Name, errs[0].Msg, len(errs))
	}
	return nil
}

// AnalyzeKernelLaunch slices and abstractly executes one kernel under its
// launch configuration. Threads of a launch differ only in whether the
// bounds check passes, so one in-bounds and (when the grid overcovers)
// one out-of-bounds representative suffice; the counts scale by thread
// population. With opts.Cache set, the result is memoized by kernel
// content and launch configuration.
func AnalyzeKernelLaunch(k *ptx.Kernel, l ptxgen.Launch, opts Options) (KernelReport, error) {
	if k == nil {
		return KernelReport{}, fmt.Errorf("dca: nil kernel")
	}
	f := &kernelFacts{k: k}
	f.a, f.d, f.err = ptxanalysis.AnalyzeKernelGateCached(k, opts.Cache)
	if err := f.gate(); err != nil {
		return KernelReport{}, err
	}
	kr, _, err := analyzeKernelLaunch(context.Background(), f, l, opts, &frame{})
	return kr, err
}

// prepare builds the launch-independent artifacts (dependency graph,
// control slice, compiled bytecode) on top of the static analysis,
// once, under a "dca.compile" span.
func (f *kernelFacts) prepare(ctx context.Context, opts Options) *kernelFacts {
	if f.prepared {
		return f
	}
	f.prepared = true
	_, span := obs.Start(ctx, "dca.compile", obs.String("kernel", f.k.Name))
	defer span.End()
	var loops []ptxanalysis.Loop
	if f.cfg, loops, f.prepErr = kernelCFG(f.k, f.a); f.prepErr != nil {
		return f
	}
	d := f.dec
	if d == nil {
		d = ptx.DecodeKernel(f.k)
	}
	f.dec = nil
	f.g = buildDepGraph(d)
	f.slice = buildControlSlice(d, f.g)
	// The bytecode is derived, never cached: compiling costs less than
	// decoding a stored copy, and every launch of the kernel in one
	// AnalyzeProgram call shares f.
	f.ck, f.prepErr = compile(d, f.slice, opts.Exec, f.cfg, loops)
	return f
}

// analyzeKernelLaunch analyses one launch of the kernel f describes,
// preparing its per-kernel artifacts on a cache miss and executing in
// the reusable frame fr. It additionally reports whether the result
// came out of the analysis cache, for span attribution.
func analyzeKernelLaunch(ctx context.Context, f *kernelFacts, l ptxgen.Launch, opts Options, fr *frame) (KernelReport, bool, error) {
	k := f.k
	if opts.Cache == nil {
		kr, err := analyzeKernelLaunchUncached(f.prepare(ctx, opts), l, opts, fr)
		return kr, false, err
	}
	// GetOrCompute runs the closure on the calling goroutine, so the
	// caller's frame never crosses goroutines; cached reports retain no
	// frame memory (BlockVisits is freshly allocated).
	v, hit, err := opts.Cache.GetOrCompute(launchKey(f, l, opts), func() (any, error) {
		kr, err := analyzeKernelLaunchUncached(f.prepare(ctx, opts), l, opts, fr)
		if err != nil {
			return nil, err
		}
		// The launch identity is re-stamped on every read below, so the
		// shared entry (and the stored record) carries none: its bytes
		// do not depend on which content-identical launch wrote it.
		kr.Kernel, kr.Node, kr.WorkingSetBytes = "", "", 0
		return &kr, nil
	})
	if err != nil {
		return KernelReport{}, hit, err
	}
	// The cached report is shared by every content-identical launch, and
	// records from older stores carry their first writer's identity;
	// stamp the launch-specific fields (none of which influence the
	// counts) and detach the class histogram so callers cannot mutate
	// the shared entry.
	kr := *(v.(*KernelReport))
	kr.Kernel = k.Name
	kr.Node = l.Node
	kr.WorkingSetBytes = l.WorkingSetBytes
	perClass := make(map[ptx.Class]int64, len(kr.PerClass))
	for c, n := range kr.PerClass {
		perClass[c] = n
	}
	kr.PerClass = perClass
	if kr.BlockVisits != nil {
		kr.BlockVisits = append([]int64(nil), kr.BlockVisits...)
	}
	return kr, hit, nil
}

// launchKey derives the memoization key of one (kernel, launch) pair:
// the canonical kernel text plus every launch and executor knob that can
// influence the counted result. WorkingSetBytes and the node identity
// are deliberately excluded — they are carried through the report but do
// not affect the abstract execution. The literals "lint=true" and
// "ref=false" keep the key bytes of stored records from when a launch
// could skip the lint gate and the executor had a reference mode
// (TestLaunchKeyGolden).
func launchKey(f *kernelFacts, l ptxgen.Launch, opts Options) string {
	b := make([]byte, 0, 256)
	b = strconv.AppendInt(append(b, "grid="...), int64(l.GridX), 10)
	b = strconv.AppendInt(append(b, ";block="...), int64(l.BlockX), 10)
	b = strconv.AppendInt(append(b, ";threads="...), l.Threads, 10)
	b = strconv.AppendBool(append(b, ";full="...), opts.Exec.Full)
	b = strconv.AppendInt(append(b, ";maxsteps="...), opts.Exec.MaxSteps, 10)
	b = strconv.AppendBool(append(b, ";lint=true;ref=false;bb="...), opts.BlockCounts)
	launch := len(b)
	for i, p := range f.k.Params {
		b = strconv.AppendInt(b, int64(i), 10)
		b = strconv.AppendInt(append(b, '='), l.Params[p.Name], 10)
		b = append(b, ';')
	}
	return f.d.Key("dca", string(b[:launch]), string(b[launch:]))
}

// analyzeKernelLaunchUncached is the memoization-free analysis body.
func analyzeKernelLaunchUncached(f *kernelFacts, l ptxgen.Launch, opts Options, fr *frame) (KernelReport, error) {
	if f.prepErr != nil { // structural validation (the gate subsumes it)
		return KernelReport{}, f.prepErr
	}
	k, slice := f.k, f.slice

	rep := KernelReport{
		Kernel:          k.Name,
		Node:            l.Node,
		Static:          len(k.Body),
		SliceSize:       slice.Size,
		SliceFraction:   slice.Fraction(),
		DepEdges:        f.g.Edges(),
		PerClass:        make(map[ptx.Class]int64),
		WorkingSetBytes: l.WorkingSetBytes,
		Threads:         l.Threads,
	}

	total := int64(l.GridX) * int64(l.BlockX)
	active := l.Threads
	oob := total - active
	runOob := oob > 0 && active <= total

	var inVisits, oobVisits []int64
	if opts.BlockCounts {
		inVisits = fr.visitCounts(0, len(k.Body))
		if runOob {
			oobVisits = fr.visitCounts(1, len(k.Body))
		}
	}
	inCtx := ThreadCtx{CtaID: 0, Tid: 0, NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
	oobCtx := ThreadCtx{CtaID: int64(l.GridX) - 1, Tid: int64(l.BlockX) - 1, NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
	// Both representatives read the launch's values bound once by
	// declaration position.
	fr.bindParams(k, l.Params)
	var inRes, oobRes ExecResult
	inErr := f.ck.exec(k, l.Params, inCtx, fr, inVisits, &inRes)
	var oobErr error
	if inErr == nil && runOob {
		oobErr = f.ck.exec(k, l.Params, oobCtx, fr, oobVisits, &oobRes)
	}
	if inErr != nil {
		return rep, fmt.Errorf("dca: kernel %s: %w", k.Name, inErr)
	}
	rep.PerThread = inRes.Steps
	rep.LoopIterations = inRes.BackBranches

	if active > total {
		return rep, fmt.Errorf("dca: kernel %s: %d threads exceed grid capacity %d", k.Name, active, total)
	}

	rep.Executed = active * inRes.Steps
	// The dense histogram converts to the sparse report map here, at the
	// serialization boundary: only classes the thread touched get an
	// entry (an entry may still be zero when active is zero, matching
	// the historical map encoding).
	for c, v := range &inRes.PerClass {
		if v != 0 {
			rep.PerClass[ptx.Class(c)] += active * v
		}
	}
	if oob > 0 {
		if oobErr != nil {
			return rep, fmt.Errorf("dca: kernel %s (oob thread): %w", k.Name, oobErr)
		}
		rep.Executed += oob * oobRes.Steps
		for c, v := range &oobRes.PerClass {
			if v != 0 {
				rep.PerClass[ptx.Class(c)] += oob * v
			}
		}
	}
	if inVisits != nil {
		// Collapse the per-instruction profile to per-block launch
		// totals: a block's visit count is its first instruction's (an
		// early thread exit can starve a block's tail, never its head).
		rep.BlockVisits = make([]int64, len(f.cfg.Blocks))
		for bi, b := range f.cfg.Blocks {
			v := active * inVisits[b.Start]
			if oobVisits != nil {
				v += oob * oobVisits[b.Start]
			}
			rep.BlockVisits[bi] = v
		}
	}
	return rep, nil
}

// AnalyzeProgram runs the dynamic code analysis over every launch of a
// compiled CNN and aggregates the executed-instruction totals.
func AnalyzeProgram(prog *ptxgen.Program, opts Options) (*Report, error) {
	return AnalyzeProgramContext(context.Background(), prog, opts)
}

// AnalyzeProgramContext is AnalyzeProgram with span tracing: when ctx
// carries an obs tracer (or span), the lint gate, each per-kernel
// compile and each per-launch abstract execution are recorded as nested
// spans. Tracing never changes the computed report.
func AnalyzeProgramContext(ctx context.Context, prog *ptxgen.Program, opts Options) (*Report, error) {
	if prog == nil {
		return nil, fmt.Errorf("dca: nil program")
	}
	start := time.Now()
	ctx, span := obs.Start(ctx, "dca.analyze",
		obs.String("model", prog.Model), obs.Int("launches", len(prog.Launches)))
	defer span.End()
	rep := &Report{Model: prog.Model, PerClass: make(map[ptx.Class]int64)}
	if len(prog.Launches) > 0 {
		rep.Kernels = make([]KernelReport, 0, len(prog.Launches))
	}
	st := opts.Static
	if st != nil && (len(st.Kernels) != len(prog.Module.Kernels) || len(st.Digests) != len(st.Kernels)) {
		return nil, fmt.Errorf("dca: static analysis does not cover the program's module")
	}
	// Each launched kernel's facts come from opts.Static or, without
	// it, from the cache on first use.
	facts := make(map[string]*kernelFacts, 8)
	factsOf := func(ctx context.Context, name string) (*kernelFacts, error) {
		if f := facts[name]; f != nil {
			return f, nil
		}
		for i, k := range prog.Module.Kernels {
			if k.Name == name {
				f := &kernelFacts{k: k}
				if st != nil {
					f.a, f.d = st.Kernels[i], st.Digests[i]
					if i < len(st.Decoded) { // nil from ModuleAnalysis.Gate
						f.dec = st.Decoded[i]
					}
				} else {
					f.a, f.d, f.err = ptxanalysis.AnalyzeKernelGateCached(k, opts.Cache)
				}
				facts[name] = f
				return f, nil
			}
		}
		return nil, fmt.Errorf("dca: launch references unknown kernel %q", name)
	}
	// Gate every distinct kernel once up front over its shared
	// diagnostics; the per-launch loop then needs no re-gating (a kernel
	// may be launched many times).
	lintCtx, lintSpan := obs.Start(ctx, "dca.lint")
	for _, l := range prog.Launches {
		if facts[l.Kernel] != nil {
			continue
		}
		f, err := factsOf(lintCtx, l.Kernel)
		if err == nil {
			err = f.gate()
		}
		if err != nil {
			lintSpan.End()
			return nil, err
		}
	}
	lintSpan.SetAttr(obs.Int("kernels", len(facts)))
	lintSpan.End()
	// One frame serves every launch of the program, so once the largest
	// kernel has warmed it the per-launch executions allocate nothing.
	fr := &frame{}
	var sliceSum float64
	for _, l := range prog.Launches {
		f, err := factsOf(ctx, l.Kernel)
		if err != nil {
			return nil, err
		}
		execCtx, execSpan := obs.Start(ctx, "dca.exec",
			obs.String("kernel", f.k.Name), obs.String("node", l.Node))
		kr, hit, err := analyzeKernelLaunch(execCtx, f, l, opts, fr)
		if err != nil {
			execSpan.End()
			return nil, err
		}
		execSpan.SetAttr(obs.Bool("cache_hit", hit),
			obs.Int64("executed", kr.Executed), obs.Int64("loop_iterations", kr.LoopIterations))
		execSpan.End()
		rep.Kernels = append(rep.Kernels, kr)
		rep.Executed += kr.Executed
		// Accumulate in class order, not map order: insertion order into
		// rep.PerClass is then deterministic across runs and engines.
		for c := 0; c < ptx.NumClasses; c++ {
			if v, ok := kr.PerClass[ptx.Class(c)]; ok {
				rep.PerClass[ptx.Class(c)] += v
			}
		}
		sliceSum += kr.SliceFraction
	}
	if len(rep.Kernels) > 0 {
		rep.MeanSliceFraction = sliceSum / float64(len(rep.Kernels))
	}
	rep.AnalysisTime = time.Since(start)
	return rep, nil
}
