package core

import (
	"context"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// BenchmarkAnalyzePTXCold measures one raw-PTX analysis of the alexnet
// batch-16 module (19 kernels) against an empty cache, so every kernel
// is new: parse, the static pass, the DCA gate, compile and execution.
// Each iteration's cache is built outside the timer.
func BenchmarkAnalyzePTXCold(b *testing.B) {
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), DefaultConfig().PTX)
	if err != nil {
		b.Fatal(err)
	}
	src := ptx.Print(prog.Module)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := Config{Cache: analysiscache.New(0)}
		b.StartTimer()
		if _, err := AnalyzePTXContext(ctx, src, PTXOptions{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
