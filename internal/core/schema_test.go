package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// featureVectorGPUs are the devices TestFeatureVectorGolden pins: the
// paper's two training GPUs and one GPU no estimator trains on.
var featureVectorGPUs = []string{"gtx1080ti", "v100s", "t4"}

// featureVectorText renders, for every combination of the three schema
// booleans, the schema names and the exact float64 bits of alexnet's
// feature vector on each of featureVectorGPUs.
func featureVectorText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for combo := 0; combo < 8; combo++ {
		cfg := DefaultConfig()
		cfg.ExtendedFeatures = combo&1 != 0
		cfg.StaticFeatures = combo&2 != 0
		cfg.BBFeatures = combo&4 != 0
		ds, _, err := BuildDataset([]string{"alexnet"}, featureVectorGPUs, cfg)
		if err != nil {
			t.Fatalf("combo %d: %v", combo, err)
		}
		fmt.Fprintf(&b, "combo extended=%t static=%t bb=%t\n", cfg.ExtendedFeatures, cfg.StaticFeatures, cfg.BBFeatures)
		fmt.Fprintf(&b, "schema %s\n", strings.Join(ds.FeatureNames, " "))
		for _, r := range ds.Rows {
			if len(r.X) != len(ds.FeatureNames) {
				t.Fatalf("%s: %d values for %d names", r.Tag, len(r.X), len(ds.FeatureNames))
			}
			b.WriteString(r.Tag)
			for _, v := range r.X {
				fmt.Fprintf(&b, " %016x", math.Float64bits(v))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFeatureVectorGolden pins the feature vector layout of all eight
// schemas (ExtendedFeatures x StaticFeatures x BBFeatures): the names
// and the bit-exact values of alexnet on two training GPUs and one
// unseen GPU, under the default configuration. A refactor of the
// vector builder must leave testdata/feature_vectors.golden untouched.
func TestFeatureVectorGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "feature_vectors.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := featureVectorText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("feature vectors differ from the golden at line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
