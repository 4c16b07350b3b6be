// Package zoo provides from-scratch structural definitions of the 32
// standard CNNs the paper uses for its experiments (Table I): the AlexNet,
// VGG, ResNet (v1/v2), Big-Transfer (BiT) ResNet, DenseNet, NASNet,
// MobileNet (v1/v2), Inception v3, Inception-ResNet v2, Xception and
// EfficientNet (B0–B7) families.
//
// Every builder reproduces the published topology so that the Static
// Analyzer's trainable-parameter and neuron counts match the reference
// implementations. Reference values from the paper's Table I are embedded
// for verification.
package zoo

import (
	"fmt"
	"sort"

	"cnnperf/internal/cnn"
)

// Builder constructs one model of the zoo.
type Builder func() *cnn.Model

// Reference holds the values the paper's Table I reports for one CNN.
type Reference struct {
	// Name is the model name as printed in the paper.
	Name string
	// Input is the input size used by the paper.
	Input cnn.Shape
	// Layers is the layer count reported by Table I.
	Layers int
	// Neurons is the neuron count reported by Table I.
	Neurons int64
	// TrainableParams is the trainable-parameter count of Table I.
	TrainableParams int64
}

// registry maps canonical model names to builders.
var registry = map[string]Builder{}

// tableI holds the paper's reference rows keyed by canonical name.
var tableI = map[string]Reference{}

func register(ref Reference, b Builder) {
	if _, dup := registry[ref.Name]; dup {
		panic(fmt.Sprintf("zoo: duplicate model %q", ref.Name))
	}
	registry[ref.Name] = b
	tableI[ref.Name] = ref
}

// registerExtra adds a model that is not part of the paper's Table I
// (used to extend the design space, as the paper's future work proposes).
// It has no reference row.
func registerExtra(name string, input cnn.Shape, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("zoo: duplicate model %q", name))
	}
	registry[name] = b
	_ = input
}

// Names returns all registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Has reports whether name is a registered model name. Unlike Build,
// it accepts no alias.
func Has(name string) bool {
	_, ok := registry[name]
	return ok
}

// TableIOrder lists the models in the row order of the paper's Table I.
var TableIOrder = []string{
	"m-r50x1", "m-r50x3", "m-r101x3", "m-r101x1", "m-r152x4",
	"resnet101", "resnet152", "resnet50v2", "resnet101v2", "resnet152v2",
	"nasnetmobile", "nasnetlarge",
	"densenet121", "densenet169", "densenet201",
	"mobilenet", "inceptionv3", "vgg16", "vgg19",
	"efficientnetb0", "efficientnetb1", "efficientnetb2", "efficientnetb3",
	"efficientnetb4", "efficientnetb5", "efficientnetb6", "efficientnetb7",
	"xception", "mobilenetv2", "inceptionresnetv2", "alexnet",
}

// Build constructs the named model. The name "m-r154x4" of the paper
// (a typo for the published BiT-R152x4) is accepted as an alias.
func Build(name string) (*cnn.Model, error) {
	if name == "m-r154x4" {
		name = "m-r152x4"
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("zoo: unknown model %q", name)
	}
	return b(), nil
}

// MustBuild is Build but panics on unknown names.
func MustBuild(name string) *cnn.Model {
	m, err := Build(name)
	if err != nil {
		panic(err)
	}
	return m
}

// TableI returns the paper's reference row for the named model.
func TableI(name string) (Reference, bool) {
	if name == "m-r154x4" {
		name = "m-r152x4"
	}
	r, ok := tableI[name]
	return r, ok
}

// All builds every model in Table I order.
func All() []*cnn.Model {
	out := make([]*cnn.Model, 0, len(TableIOrder))
	for _, n := range TableIOrder {
		out = append(out, MustBuild(n))
	}
	return out
}

func sq(n int) cnn.Shape { return cnn.Shape{H: n, W: n, C: 3} }
