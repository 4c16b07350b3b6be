package mlearn

import "fmt"

// treeNodeJSON is the serialisable form of one tree node.
type treeNodeJSON struct {
	Feature   int           `json:"feature,omitempty"`
	Threshold float64       `json:"threshold,omitempty"`
	Value     float64       `json:"value"`
	Samples   int           `json:"samples"`
	Left      *treeNodeJSON `json:"left,omitempty"`
	Right     *treeNodeJSON `json:"right,omitempty"`
}

// treeJSON is the serialisable form of a fitted decision tree.
type treeJSON struct {
	Kind        string        `json:"kind"`
	NumFeatures int           `json:"num_features"`
	MaxDepth    int           `json:"max_depth"`
	MinLeaf     int           `json:"min_leaf"`
	MinSplit    int           `json:"min_split"`
	Importances []float64     `json:"importances"`
	Root        *treeNodeJSON `json:"root"`
}

func encodeNode(n *treeNode) *treeNodeJSON {
	if n == nil {
		return nil
	}
	return &treeNodeJSON{
		Feature:   n.feature,
		Threshold: n.threshold,
		Value:     n.value,
		Samples:   n.samples,
		Left:      encodeNode(n.left),
		Right:     encodeNode(n.right),
	}
}

func decodeNode(j *treeNodeJSON) (*treeNode, error) {
	if j == nil {
		return nil, nil
	}
	if (j.Left == nil) != (j.Right == nil) {
		return nil, fmt.Errorf("mlearn: corrupt tree: node with a single child")
	}
	left, err := decodeNode(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := decodeNode(j.Right)
	if err != nil {
		return nil, err
	}
	return &treeNode{
		feature:   j.Feature,
		threshold: j.Threshold,
		value:     j.Value,
		samples:   j.Samples,
		left:      left,
		right:     right,
	}, nil
}

// validateLoaded sanity-checks a deserialised tree: feature indices in
// range and bounded recursion depth.
func (t *DecisionTree) validateLoaded(n *treeNode, depth int) error {
	if n == nil {
		return nil
	}
	if depth > 64 {
		return fmt.Errorf("mlearn: loaded tree deeper than 64 levels")
	}
	if !n.leaf() {
		if n.feature < 0 || n.feature >= t.numFeat {
			return fmt.Errorf("mlearn: loaded tree splits on feature %d of %d", n.feature, t.numFeat)
		}
		if err := t.validateLoaded(n.left, depth+1); err != nil {
			return err
		}
		if err := t.validateLoaded(n.right, depth+1); err != nil {
			return err
		}
	}
	return nil
}
