package core

import (
	"fmt"
	"slices"

	"cnnperf/internal/gpu"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxanalysis/absint"
)

// featureBlock is one named group of predictors and its extractor.
type featureBlock struct {
	names []string
	// static marks a block read from the full static analysis
	// (ModelAnalysis.Static), which a schema holding it makes run.
	static bool
	// fill writes the block's values into x, len(names) zeros.
	fill func(x []float64, a *ModelAnalysis, spec gpu.Spec)
}

// Indices of featureBlocks.
const (
	cnnBlock = iota
	gpuBlock
	flopsBlock
	staticBlock
	bbBlock
)

// featureBlocks is the feature schema table, in schema order. A schema
// is a run of whole blocks from it, in table order, each at most once;
// a vector is built from the names a schema resolves to, never from its
// width.
var featureBlocks = [...]featureBlock{
	cnnBlock: {names: []string{"executed_instructions", "trainable_params"},
		fill: func(x []float64, a *ModelAnalysis, _ gpu.Spec) {
			x[0], x[1] = float64(a.Report.Executed), float64(a.Summary.TrainableParams)
		}},
	gpuBlock: {names: gpu.FeatureNames,
		fill: func(x []float64, _ *ModelAnalysis, spec gpu.Spec) { copy(x, spec.Features()) }},
	flopsBlock: {names: []string{"flops", "macs"},
		fill: func(x []float64, a *ModelAnalysis, _ gpu.Spec) {
			x[0], x[1] = float64(a.Summary.FLOPs), float64(a.Summary.MACs)
		}},
	staticBlock: {names: ptxanalysis.FeatureNames, static: true,
		fill: func(x []float64, a *ModelAnalysis, _ gpu.Spec) {
			if a.Static != nil {
				copy(x, a.Static.Features())
			}
		}},
	bbBlock: {names: []string{"bb_count", "bb_exec_divergent_frac", "bb_exec_uniform_branch_frac",
		"bb_exec_coalesced_frac", "bb_exec_uncoalesced_frac", "bb_mean_stride_bytes", "bb_mean_live_regs"},
		static: true, fill: fillBB},
}

// FeatureNames is the dataset schema: the two CNN predictors followed by
// the GPU architectural predictors.
var FeatureNames = Config{}.schema().names()

// ExtendedFeatureNames additionally includes the FLOP and MAC counts the
// paper's future work proposes as extra CNN complexity predictors.
var ExtendedFeatureNames = Config{ExtendedFeatures: true}.schema().names()

// StaticFeatureNames is the base schema plus the static-analysis
// predictors of internal/ptxanalysis (register pressure, loop nesting,
// instruction mix, coalescing estimate).
var StaticFeatureNames = Config{StaticFeatures: true}.schema().names()

// BBFeatureNames are the per-basic-block predictors: static block
// features of the abstract interpreter (divergence class, coalescing
// class, stride, live registers) joined with the dynamic per-block
// execution counts of the DCA and aggregated execution-weighted over
// the whole model. Config.BBFeatures adds them to the schema.
var BBFeatureNames = blockSet(1 << bbBlock).names()

// blockSet is a resolved schema: bit i set means it holds
// featureBlocks[i]. Blocks come in table order, so the set fixes the
// names and the vector layout.
type blockSet uint8

// schema returns the blocks the configuration chooses: CNN and GPU,
// then FLOPs, static and BB as its booleans ask.
func (c Config) schema() blockSet {
	s := blockSet(1<<cnnBlock | 1<<gpuBlock)
	for i, on := range [...]bool{flopsBlock: c.ExtendedFeatures, staticBlock: c.StaticFeatures, bbBlock: c.BBFeatures} {
		if on {
			s |= 1 << i
		}
	}
	return s
}

// each calls f on the schema's blocks, in schema order.
func (s blockSet) each(f func(b *featureBlock)) {
	for i := range featureBlocks {
		if s&(1<<i) != 0 {
			f(&featureBlocks[i])
		}
	}
}

func (s blockSet) names() (out []string) {
	s.each(func(b *featureBlock) { out = append(out, b.names...) })
	return out
}

// fullStatic reports whether the schema holds a block read from the
// full static analysis.
func (s blockSet) fullStatic() (static bool) {
	s.each(func(b *featureBlock) { static = static || b.static })
	return static
}

// vector builds the feature vector of a on spec as one slice.
func (s blockSet) vector(a *ModelAnalysis, spec gpu.Spec) []float64 {
	n := 0
	s.each(func(b *featureBlock) { n += len(b.names) })
	x, off := make([]float64, n), 0
	s.each(func(b *featureBlock) {
		b.fill(x[off:off+len(b.names)], a, spec)
		off += len(b.names)
	})
	return x
}

// resolveSchema resolves feature names to their blocks; the error names
// the feature where the names stop forming whole blocks in table order.
func resolveSchema(names []string) (blockSet, error) {
	var s blockSet
	for i, next := 0, 0; i < len(names); next++ {
		for next < len(featureBlocks) && featureBlocks[next].names[0] != names[i] {
			next++
		}
		if next == len(featureBlocks) {
			return 0, fmt.Errorf("core: unexpected feature %q at schema position %d", names[i], i)
		}
		b := featureBlocks[next].names
		if len(names)-i < len(b) || !slices.Equal(names[i:i+len(b)], b) {
			return 0, fmt.Errorf("core: incomplete feature block %q at schema position %d", names[i], i)
		}
		s |= 1 << next
		i += len(b)
	}
	return s, nil
}

// fillBB aggregates the per-basic-block static features of every kernel
// into the BBFeatureNames vector x, weighting each block by its total
// execution count from the DCA (dca.KernelReport.BlockVisits). A launch
// without a visit profile — the control slice did not compile to
// bytecode — falls back to weight 1 per block; a missing analysis
// leaves zeros (deserialised legacy results).
func fillBB(x []float64, a *ModelAnalysis, _ gpu.Spec) {
	if a.Static == nil || a.Report == nil {
		return
	}
	byKernel := make(map[string]*ptxanalysis.KernelAnalysis, len(a.Static.Kernels))
	for _, ka := range a.Static.Kernels {
		byKernel[ka.Kernel] = ka
		x[0] += float64(len(ka.Blocks)) // bb_count
	}
	var wTotal, wDiv, wUni float64
	var wGlobal, wCoal, wStrided, wKnown, wStrideSum, wLive float64
	for i := range a.Report.Kernels {
		kr := &a.Report.Kernels[i]
		ka := byKernel[kr.Kernel]
		if ka == nil || len(ka.Blocks) == 0 {
			continue
		}
		for bi := range ka.Blocks {
			bf := &ka.Blocks[bi]
			w := 1.0
			if len(kr.BlockVisits) == len(ka.Blocks) {
				w = float64(kr.BlockVisits[bi])
			}
			wTotal += w
			switch bf.Branch {
			case absint.BranchDivergent:
				wDiv += w
			case absint.BranchUniform:
				wUni += w
			}
			wGlobal += w * float64(bf.GlobalAccesses)
			wCoal += w * float64(bf.CoalescedGlobal)
			wStrided += w * float64(bf.StridedGlobal)
			wKnown += w * float64(bf.KnownStrideGlobal)
			wStrideSum += w * float64(bf.SumAbsStrideBytes)
			wLive += w * float64(bf.LiveIn)
		}
	}
	if wTotal > 0 {
		x[1] = wDiv / wTotal
		x[2] = wUni / wTotal
		x[6] = wLive / wTotal
	}
	if wGlobal > 0 {
		x[3] = wCoal / wGlobal
		x[4] = wStrided / wGlobal
	}
	if wKnown > 0 {
		x[5] = wStrideSum / wKnown
	}
}
