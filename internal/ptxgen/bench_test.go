package ptxgen

import (
	"testing"

	"cnnperf/internal/cnn"
	"cnnperf/internal/zoo"
)

// BenchmarkCompile lowers every Table I model to PTX at the pipeline's
// default batch size: one op is one pass over the inventory.
func BenchmarkCompile(b *testing.B) {
	models := make([]*cnn.Model, len(zoo.TableIOrder))
	for i, name := range zoo.TableIOrder {
		models[i] = zoo.MustBuild(name)
	}
	opts := Options{Batch: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			if _, err := Compile(m, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
