package ptxanalysis

import (
	"encoding/json"
	"fmt"
)

// Persistent serialization of analysis artifacts. A persisted
// KernelAnalysis is a reduced view: the in-memory CFG and loops are
// deliberately dropped — every consumer outside this package reads only
// the plain summary fields kept here, and module aggregation treats the
// dropped pointers as optional, so a disk-loaded analysis behaves
// exactly like a fresh one on the serving path at a fraction of the
// bytes. Bump kernelAnalysisVersion when the persisted shape changes.

const kernelAnalysisVersion = 1

type kernelAnalysisJSON struct {
	Version      int             `json:"version"`
	Kernel       string          `json:"kernel"`
	Static       int             `json:"static"`
	MaxLoopDepth int             `json:"max_loop_depth"`
	Pressure     Pressure        `json:"pressure"`
	Mix          Mix             `json:"mix"`
	Blocks       []BlockFeatures `json:"blocks,omitempty"`
	Diags        []Diag          `json:"diags,omitempty"`
}

// MarshalKernelAnalysis serialises the persistable view of a.
func MarshalKernelAnalysis(a *KernelAnalysis) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("ptxanalysis: cannot marshal a nil analysis")
	}
	return json.Marshal(kernelAnalysisJSON{
		Version:      kernelAnalysisVersion,
		Kernel:       a.Kernel,
		Static:       a.Static,
		MaxLoopDepth: a.MaxLoopDepth,
		Pressure:     a.Pressure,
		Mix:          a.Mix,
		Blocks:       a.Blocks,
		Diags:        a.Diags,
	})
}

// UnmarshalKernelAnalysis reconstructs a persisted analysis. The result
// carries nil CFG and Loops, like the reduced views
// already flowing through the pipeline.
func UnmarshalKernelAnalysis(b []byte) (*KernelAnalysis, error) {
	var j kernelAnalysisJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("ptxanalysis: decoding analysis: %w", err)
	}
	if j.Version != kernelAnalysisVersion {
		return nil, fmt.Errorf("ptxanalysis: unsupported analysis version %d (want %d)", j.Version, kernelAnalysisVersion)
	}
	if j.Static < 0 || j.MaxLoopDepth < 0 {
		return nil, fmt.Errorf("ptxanalysis: corrupt analysis payload")
	}
	return &KernelAnalysis{
		Kernel:       j.Kernel,
		Static:       j.Static,
		MaxLoopDepth: j.MaxLoopDepth,
		Pressure:     j.Pressure,
		Mix:          j.Mix,
		Blocks:       j.Blocks,
		Diags:        j.Diags,
	}, nil
}
