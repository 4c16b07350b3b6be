package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cnnperf/internal/artifactstore"
	"cnnperf/internal/dca"
	"cnnperf/internal/gpusim"
	"cnnperf/internal/profiler"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
)

// The artifact tier assembles one codec per persistable cache
// namespace, bridging the pipeline's in-memory analysis cache to the
// content-addressed disk store:
//
//	dca   per-launch dynamic-code-analysis reports (*dca.KernelReport)
//	ptxa  static kernel analyses                   (*ptxanalysis.KernelAnalysis)
//	est   trained estimators                       (*Estimator)
//
// The DCA gate reads the ptxa analysis, and the DCA compiles each
// kernel's bytecode afresh rather than persisting it. Namespaces older
// stores wrote for either (the gate's findings, the bytecode) have no
// codec and are never read.
//
// Each codec's Version() is the namespace format version: bump it in
// lockstep with the payload version constant of the owning package and
// the store wipes the stale namespace on next open.

type dcaCodec struct{}

func (dcaCodec) Namespace() string { return "dca" }
func (dcaCodec) Version() int      { return 1 }
func (dcaCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(*dca.KernelReport)
	if !ok {
		return nil, fmt.Errorf("core: dca codec got %T", v)
	}
	return dca.MarshalKernelReport(r)
}
func (dcaCodec) Decode(b []byte) (any, error) { return dca.UnmarshalKernelReport(b) }

type ptxaCodec struct{}

func (ptxaCodec) Namespace() string { return "ptxa" }
func (ptxaCodec) Version() int      { return 1 }
func (ptxaCodec) Encode(v any) ([]byte, error) {
	a, ok := v.(*ptxanalysis.KernelAnalysis)
	if !ok {
		return nil, fmt.Errorf("core: ptxa codec got %T", v)
	}
	return ptxanalysis.MarshalKernelAnalysis(a)
}
func (ptxaCodec) Decode(b []byte) (any, error) { return ptxanalysis.UnmarshalKernelAnalysis(b) }

type estCodec struct{}

func (estCodec) Namespace() string { return "est" }
func (estCodec) Version() int      { return 1 }
func (estCodec) Encode(v any) ([]byte, error) {
	e, ok := v.(*Estimator)
	if !ok {
		return nil, fmt.Errorf("core: est codec got %T", v)
	}
	return MarshalEstimator(e)
}
func (estCodec) Decode(b []byte) (any, error) { return UnmarshalEstimator(b) }

// NewArtifactTier builds the disk tier persisting every artifact class
// the pipeline caches. store may be nil for a snapshot-only tier.
func NewArtifactTier(store *artifactstore.Store) (*artifactstore.Tier, error) {
	return artifactstore.NewTier(store,
		dcaCodec{}, ptxaCodec{}, estCodec{})
}

// configFingerprintView is the subset of Config that changes analysis
// or training results. Workers and Cache deliberately excluded: they
// change scheduling, never values (the determinism harness enforces
// it), so artifacts stay shareable across differently-sized deployments.
type configFingerprintView struct {
	PTX              ptxgen.Options  `json:"ptx"`
	Sim              gpusim.Config   `json:"sim"`
	Prof             profiler.Config `json:"prof"`
	TrainFrac        float64         `json:"train_frac"`
	SplitSeed        int64           `json:"split_seed"`
	ExtendedFeatures bool            `json:"extended_features"`
	StaticFeatures   bool            `json:"static_features"`
	BBFeatures       bool            `json:"bb_features"`
	// ReferenceInterp is always false. It names a deleted engine switch
	// that never changed results; the field stays so the fingerprint
	// bytes, and with them every stored estimator's key, are unchanged.
	ReferenceInterp bool `json:"reference_interp"`
}

// ConfigFingerprint hashes the result-affecting configuration, so
// persisted estimators trained under one configuration are never served
// under another.
func ConfigFingerprint(cfg Config) string {
	b, err := json.Marshal(configFingerprintView{
		PTX:              cfg.PTX,
		Sim:              cfg.Sim,
		Prof:             cfg.Prof,
		TrainFrac:        cfg.TrainFrac,
		SplitSeed:        cfg.SplitSeed,
		ExtendedFeatures: cfg.ExtendedFeatures,
		StaticFeatures:   cfg.StaticFeatures,
		BBFeatures:       cfg.BBFeatures,
	})
	if err != nil {
		// The view is plain data; Marshal cannot fail. Guard anyway.
		panic(fmt.Sprintf("core: fingerprinting config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EstimatorKey is the content key of the leave-one-out estimator that
// excludes the given model (empty = full-zoo estimator) under cfg. The
// "est:" prefix routes it to the estimator codec of the artifact tier.
func EstimatorKey(exclude string, cfg Config) string {
	h := sha256.New()
	var frame [8]byte
	writePart := func(s string) {
		binary.BigEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	writePart("cnnperf-est")
	writePart(exclude)
	writePart(ConfigFingerprint(cfg))
	return "est:" + hex.EncodeToString(h.Sum(nil))
}
