package core

import (
	"encoding/json"
	"fmt"
	"io"

	"cnnperf/internal/mlearn"
)

// estimatorEnvelope is the on-disk form of a trained estimator: the
// feature schema plus the serialised regressor. Version 2 wraps any of
// the five paper regressors in the mlearn envelope; the retired version
// 1 (a bare decision tree) is rejected as unsupported.
type estimatorEnvelope struct {
	Format  string          `json:"format"`
	Schema  []string        `json:"schema"`
	Model   json.RawMessage `json:"model"`
	Version int             `json:"version"`
}

const estimatorFormat = "cnnperf-estimator"

// MarshalEstimator serialises a fitted estimator with its feature
// schema as a version-2 envelope. The encoding is deterministic:
// marshaling the same estimator twice yields byte-identical output.
func MarshalEstimator(e *Estimator) ([]byte, error) {
	if e == nil || e.Regressor == nil {
		return nil, fmt.Errorf("core: cannot marshal a nil estimator")
	}
	if len(e.Schema) == 0 {
		return nil, fmt.Errorf("core: cannot marshal an estimator without a schema")
	}
	model, err := mlearn.MarshalRegressor(e.Regressor)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return json.Marshal(estimatorEnvelope{
		Format:  estimatorFormat,
		Schema:  e.Schema,
		Model:   model,
		Version: 2,
	})
}

// UnmarshalEstimator reconstructs an estimator from a version-2
// envelope. A schema the feature table cannot resolve is rejected with
// an error naming the offending feature.
func UnmarshalEstimator(b []byte) (*Estimator, error) {
	var env estimatorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("core: decoding estimator: %w", err)
	}
	if env.Format != estimatorFormat {
		return nil, fmt.Errorf("core: unexpected format %q", env.Format)
	}
	if env.Version != 2 {
		return nil, fmt.Errorf("core: unsupported estimator version %d", env.Version)
	}
	if len(env.Schema) == 0 {
		return nil, fmt.Errorf("core: estimator envelope has an empty schema")
	}
	if _, err := resolveSchema(env.Schema); err != nil {
		return nil, err
	}
	reg, err := mlearn.UnmarshalRegressor(env.Model)
	if err != nil {
		return nil, err
	}
	return &Estimator{Regressor: reg, Schema: env.Schema}, nil
}

// Save serialises the estimator so a trained model can be distributed
// without the training data. Any of the five paper regressors is
// persistable.
func (e *Estimator) Save(w io.Writer) error {
	b, err := MarshalEstimator(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// LoadEstimator deserialises an estimator written by Save.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading estimator: %w", err)
	}
	return UnmarshalEstimator(b)
}
