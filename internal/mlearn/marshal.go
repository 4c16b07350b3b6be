package mlearn

import (
	"encoding/json"
	"fmt"
)

// Stable serialization for fitted regressors. Every model marshals to a
// versioned JSON envelope:
//
//	{"format":"cnnperf-mlearn","version":1,"kind":"<Name()>","model":{...}}
//
// The codec is deterministic — struct fields encode in declaration
// order and floats use Go's shortest-round-trip formatting — so
// marshaling the same fitted model twice yields byte-identical output,
// and Unmarshal(Marshal(m)) reconstructs a model that is deep-equal to
// m and predicts bit-identically. Bump envelopeVersion whenever any
// model payload changes shape; Unmarshal rejects unknown versions
// rather than guessing.

const (
	envelopeFormat  = "cnnperf-mlearn"
	envelopeVersion = 1
)

type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Model   json.RawMessage `json:"model"`
}

// MarshalRegressor serialises any of the five fitted paper regressors.
func MarshalRegressor(r Regressor) ([]byte, error) {
	var model any
	var err error
	switch m := r.(type) {
	case *LinearRegression:
		model, err = m.marshalBody()
	case *KNNRegressor:
		model, err = m.marshalBody()
	case *DecisionTree:
		model, err = m.marshalBody()
	case *RandomForest:
		model, err = m.marshalBody()
	case *XGBoost:
		model, err = m.marshalBody()
	default:
		return nil, fmt.Errorf("mlearn: cannot marshal regressor type %T", r)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(model)
	if err != nil {
		return nil, fmt.Errorf("mlearn: %w", err)
	}
	return json.Marshal(envelope{
		Format:  envelopeFormat,
		Version: envelopeVersion,
		Kind:    r.Name(),
		Model:   raw,
	})
}

// UnmarshalRegressor reconstructs a fitted regressor from
// MarshalRegressor output, validating the payload so a corrupt or
// adversarial artifact yields an error, never a model that panics.
func UnmarshalRegressor(b []byte) (Regressor, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("mlearn: decoding envelope: %w", err)
	}
	if env.Format != envelopeFormat {
		return nil, fmt.Errorf("mlearn: unexpected format %q", env.Format)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("mlearn: unsupported model version %d (want %d)", env.Version, envelopeVersion)
	}
	switch env.Kind {
	case "linear_regression":
		m := &LinearRegression{}
		return m, m.unmarshalBody(env.Model)
	case "knn":
		m := &KNNRegressor{}
		return m, m.unmarshalBody(env.Model)
	case "decision_tree":
		m := &DecisionTree{}
		return m, m.unmarshalBody(env.Model)
	case "random_forest":
		m := &RandomForest{}
		return m, m.unmarshalBody(env.Model)
	case "xgboost":
		m := &XGBoost{}
		return m, m.unmarshalBody(env.Model)
	default:
		return nil, fmt.Errorf("mlearn: unknown model kind %q", env.Kind)
	}
}

// scalerJSON is the serialisable form of the z-score scaler.
type scalerJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

func encodeScaler(s *scaler) *scalerJSON {
	if s == nil {
		return nil
	}
	return &scalerJSON{Mean: s.mean, Std: s.std}
}

func decodeScaler(j *scalerJSON, numFeat int) (*scaler, error) {
	if j == nil {
		return nil, nil
	}
	if len(j.Mean) != numFeat || len(j.Std) != numFeat {
		return nil, fmt.Errorf("mlearn: scaler has %d/%d stats for %d features", len(j.Mean), len(j.Std), numFeat)
	}
	for i, sd := range j.Std {
		if sd == 0 {
			return nil, fmt.Errorf("mlearn: scaler feature %d has zero std", i)
		}
	}
	return &scaler{mean: j.Mean, std: j.Std}, nil
}

// --- LinearRegression ---

type linregJSON struct {
	Ridge       float64     `json:"ridge"`
	Normalize   bool        `json:"normalize"`
	NumFeatures int         `json:"num_features"`
	Coef        []float64   `json:"coef"`
	Scaler      *scalerJSON `json:"scaler,omitempty"`
}

func (m *LinearRegression) marshalBody() (any, error) {
	if !m.fitted {
		return nil, fmt.Errorf("mlearn: cannot marshal an unfitted linear regression")
	}
	return linregJSON{
		Ridge:       m.Ridge,
		Normalize:   m.Normalize,
		NumFeatures: m.numFeat,
		Coef:        m.coef,
		Scaler:      encodeScaler(m.scaler),
	}, nil
}

func (m *LinearRegression) unmarshalBody(b []byte) error {
	var j linregJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("mlearn: decoding linear regression: %w", err)
	}
	if j.NumFeatures <= 0 || len(j.Coef) != j.NumFeatures+1 {
		return fmt.Errorf("mlearn: linear regression has %d coefficients for %d features", len(j.Coef), j.NumFeatures)
	}
	sc, err := decodeScaler(j.Scaler, j.NumFeatures)
	if err != nil {
		return err
	}
	if j.Normalize && sc == nil {
		return fmt.Errorf("mlearn: normalizing linear regression without a scaler")
	}
	m.Ridge = j.Ridge
	m.Normalize = j.Normalize
	m.numFeat = j.NumFeatures
	m.coef = j.Coef
	m.scaler = sc
	m.fitted = true
	return nil
}

// --- KNNRegressor ---

type knnJSON struct {
	K                int         `json:"k"`
	DistanceWeighted bool        `json:"distance_weighted"`
	Scaler           *scalerJSON `json:"scaler"`
	X                [][]float64 `json:"x"`
	Y                []float64   `json:"y"`
}

func (m *KNNRegressor) marshalBody() (any, error) {
	if len(m.X) == 0 || m.scaler == nil {
		return nil, fmt.Errorf("mlearn: cannot marshal an unfitted knn")
	}
	return knnJSON{
		K:                m.K,
		DistanceWeighted: m.DistanceWeighted,
		Scaler:           encodeScaler(m.scaler),
		X:                m.X,
		Y:                m.y,
	}, nil
}

func (m *KNNRegressor) unmarshalBody(b []byte) error {
	var j knnJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("mlearn: decoding knn: %w", err)
	}
	if j.K <= 0 || len(j.X) == 0 || len(j.X) != len(j.Y) || j.Scaler == nil {
		return fmt.Errorf("mlearn: corrupt knn payload (k=%d, %d rows, %d responses)", j.K, len(j.X), len(j.Y))
	}
	p := len(j.Scaler.Mean)
	sc, err := decodeScaler(j.Scaler, p)
	if err != nil {
		return err
	}
	for i, row := range j.X {
		if len(row) != p {
			return fmt.Errorf("mlearn: knn row %d has %d features, want %d", i, len(row), p)
		}
	}
	m.K = j.K
	m.DistanceWeighted = j.DistanceWeighted
	m.scaler = sc
	m.X = j.X
	m.y = j.Y
	return nil
}

// --- DecisionTree ---

func (t *DecisionTree) marshalBody() (any, error) {
	if t.root == nil {
		return nil, fmt.Errorf("mlearn: cannot marshal an unfitted decision tree")
	}
	return treeJSON{
		Kind:        "decision_tree",
		NumFeatures: t.numFeat,
		MaxDepth:    t.MaxDepth,
		MinLeaf:     t.MinLeaf,
		MinSplit:    t.MinSplit,
		Importances: t.importances,
		Root:        encodeNode(t.root),
	}, nil
}

func (t *DecisionTree) unmarshalBody(b []byte) error {
	var j treeJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("mlearn: decoding tree: %w", err)
	}
	loaded, err := decodeTreeJSON(&j)
	if err != nil {
		return err
	}
	*t = *loaded
	return nil
}

// decodeTreeJSON converts and validates one serialised tree (shared by
// the decision-tree and random-forest bodies).
func decodeTreeJSON(j *treeJSON) (*DecisionTree, error) {
	if j.Kind != "decision_tree" {
		return nil, fmt.Errorf("mlearn: unexpected model kind %q", j.Kind)
	}
	if j.NumFeatures <= 0 || j.Root == nil {
		return nil, fmt.Errorf("mlearn: corrupt tree payload")
	}
	root, err := decodeNode(j.Root)
	if err != nil {
		return nil, err
	}
	t := &DecisionTree{
		MaxDepth:    j.MaxDepth,
		MinLeaf:     j.MinLeaf,
		MinSplit:    j.MinSplit,
		numFeat:     j.NumFeatures,
		importances: j.Importances,
		root:        root,
	}
	if err := t.validateLoaded(root, 0); err != nil {
		return nil, err
	}
	if t.importances != nil && len(t.importances) != t.numFeat {
		return nil, fmt.Errorf("mlearn: tree has %d importances for %d features", len(t.importances), t.numFeat)
	}
	return t, nil
}

// --- RandomForest ---

type forestJSON struct {
	Trees       int        `json:"trees"`
	MaxDepth    int        `json:"max_depth"`
	MinLeaf     int        `json:"min_leaf"`
	MTry        int        `json:"mtry"`
	Seed        int64      `json:"seed"`
	NumFeatures int        `json:"num_features"`
	Forest      []treeJSON `json:"forest"`
}

func (m *RandomForest) marshalBody() (any, error) {
	if len(m.forest) == 0 {
		return nil, fmt.Errorf("mlearn: cannot marshal an unfitted random forest")
	}
	out := forestJSON{
		Trees:       m.Trees,
		MaxDepth:    m.MaxDepth,
		MinLeaf:     m.MinLeaf,
		MTry:        m.MTry,
		Seed:        m.Seed,
		NumFeatures: m.numFeat,
		Forest:      make([]treeJSON, 0, len(m.forest)),
	}
	for _, t := range m.forest {
		body, err := t.marshalBody()
		if err != nil {
			return nil, err
		}
		out.Forest = append(out.Forest, body.(treeJSON))
	}
	return out, nil
}

func (m *RandomForest) unmarshalBody(b []byte) error {
	var j forestJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("mlearn: decoding random forest: %w", err)
	}
	if j.NumFeatures <= 0 || len(j.Forest) == 0 {
		return fmt.Errorf("mlearn: corrupt random forest payload")
	}
	forest := make([]*DecisionTree, 0, len(j.Forest))
	for i := range j.Forest {
		t, err := decodeTreeJSON(&j.Forest[i])
		if err != nil {
			return fmt.Errorf("mlearn: forest member %d: %w", i, err)
		}
		if t.numFeat != j.NumFeatures {
			return fmt.Errorf("mlearn: forest member %d trained on %d features, forest says %d", i, t.numFeat, j.NumFeatures)
		}
		forest = append(forest, t)
	}
	m.Trees = j.Trees
	m.MaxDepth = j.MaxDepth
	m.MinLeaf = j.MinLeaf
	m.MTry = j.MTry
	m.Seed = j.Seed
	m.numFeat = j.NumFeatures
	m.forest = forest
	return nil
}

// --- XGBoost ---

type xgbNodeJSON struct {
	Feature   int          `json:"feature,omitempty"`
	Threshold float64      `json:"threshold,omitempty"`
	Weight    float64      `json:"weight"`
	Left      *xgbNodeJSON `json:"left,omitempty"`
	Right     *xgbNodeJSON `json:"right,omitempty"`
}

type xgbJSON struct {
	Rounds      int            `json:"rounds"`
	Eta         float64        `json:"eta"`
	MaxDepth    int            `json:"max_depth"`
	Lambda      float64        `json:"lambda"`
	Gamma       float64        `json:"gamma"`
	Subsample   float64        `json:"subsample"`
	Seed        int64          `json:"seed"`
	Base        float64        `json:"base"`
	NumFeatures int            `json:"num_features"`
	Gains       []float64      `json:"gains"`
	Trees       []*xgbNodeJSON `json:"boosted_trees"`
}

func encodeXGBNode(n *xgbNode) *xgbNodeJSON {
	if n == nil {
		return nil
	}
	return &xgbNodeJSON{
		Feature:   n.feature,
		Threshold: n.threshold,
		Weight:    n.weight,
		Left:      encodeXGBNode(n.left),
		Right:     encodeXGBNode(n.right),
	}
}

func decodeXGBNode(j *xgbNodeJSON, numFeat, depth int) (*xgbNode, error) {
	if j == nil {
		return nil, nil
	}
	if depth > 64 {
		return nil, fmt.Errorf("mlearn: boosted tree deeper than 64 levels")
	}
	if (j.Left == nil) != (j.Right == nil) {
		return nil, fmt.Errorf("mlearn: corrupt boosted tree: node with a single child")
	}
	if j.Left != nil && (j.Feature < 0 || j.Feature >= numFeat) {
		return nil, fmt.Errorf("mlearn: boosted tree splits on feature %d of %d", j.Feature, numFeat)
	}
	left, err := decodeXGBNode(j.Left, numFeat, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := decodeXGBNode(j.Right, numFeat, depth+1)
	if err != nil {
		return nil, err
	}
	return &xgbNode{
		feature:   j.Feature,
		threshold: j.Threshold,
		weight:    j.Weight,
		left:      left,
		right:     right,
	}, nil
}

func (m *XGBoost) marshalBody() (any, error) {
	if len(m.trees) == 0 {
		return nil, fmt.Errorf("mlearn: cannot marshal an unfitted xgboost model")
	}
	out := xgbJSON{
		Rounds:      m.Rounds,
		Eta:         m.Eta,
		MaxDepth:    m.MaxDepth,
		Lambda:      m.Lambda,
		Gamma:       m.Gamma,
		Subsample:   m.Subsample,
		Seed:        m.Seed,
		Base:        m.base,
		NumFeatures: m.numFeat,
		Gains:       m.gains,
		Trees:       make([]*xgbNodeJSON, 0, len(m.trees)),
	}
	for _, t := range m.trees {
		out.Trees = append(out.Trees, encodeXGBNode(t))
	}
	return out, nil
}

func (m *XGBoost) unmarshalBody(b []byte) error {
	var j xgbJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("mlearn: decoding xgboost: %w", err)
	}
	if j.NumFeatures <= 0 || len(j.Trees) == 0 || j.Eta <= 0 {
		return fmt.Errorf("mlearn: corrupt xgboost payload")
	}
	if j.Gains != nil && len(j.Gains) != j.NumFeatures {
		return fmt.Errorf("mlearn: xgboost has %d gains for %d features", len(j.Gains), j.NumFeatures)
	}
	trees := make([]*xgbNode, 0, len(j.Trees))
	for i, tj := range j.Trees {
		if tj == nil {
			return fmt.Errorf("mlearn: xgboost round %d is null", i)
		}
		t, err := decodeXGBNode(tj, j.NumFeatures, 0)
		if err != nil {
			return fmt.Errorf("mlearn: xgboost round %d: %w", i, err)
		}
		trees = append(trees, t)
	}
	m.Rounds = j.Rounds
	m.Eta = j.Eta
	m.MaxDepth = j.MaxDepth
	m.Lambda = j.Lambda
	m.Gamma = j.Gamma
	m.Subsample = j.Subsample
	m.Seed = j.Seed
	m.base = j.Base
	m.numFeat = j.NumFeatures
	m.gains = j.Gains
	m.trees = trees
	return nil
}
