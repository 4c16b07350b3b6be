package dca

import (
	"testing"

	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

func compileZoo(b testing.TB, name string) *ptxgen.Program {
	b.Helper()
	m := zoo.MustBuild(name)
	prog, err := ptxgen.Compile(m, ptxgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkAnalyzeProgram measures the full dynamic code analysis (the
// paper's t_dca) per model.
func BenchmarkAnalyzeProgram(b *testing.B) {
	for _, name := range []string{"alexnet", "mobilenetv2", "resnet50v2", "inceptionv3"} {
		name := name
		b.Run(name, func(b *testing.B) {
			prog := compileZoo(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeProgram(prog, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// heaviestLaunch returns the kernel and launch with the most dynamic
// steps for the in-bounds probe thread — the workload where interpreter
// speed matters most.
func heaviestLaunch(b testing.TB, prog *ptxgen.Program) (*ptx.Kernel, ptxgen.Launch) {
	b.Helper()
	byName := make(map[string]*ptx.Kernel, len(prog.Module.Kernels))
	for _, k := range prog.Module.Kernels {
		byName[k.Name] = k
	}
	var (
		best      *ptx.Kernel
		bestL     ptxgen.Launch
		bestSteps int64 = -1
	)
	for _, l := range prog.Launches {
		k := byName[l.Kernel]
		if k == nil {
			continue
		}
		g := BuildDepGraph(k)
		slice := BuildControlSlice(k, g)
		ctx := ThreadCtx{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
		res, err := ExecuteThread(k, slice, l.Params, ctx, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps > bestSteps {
			best, bestL, bestSteps = k, l, res.Steps
		}
	}
	if best == nil {
		b.Fatal("no launches")
	}
	return best, bestL
}

// BenchmarkExecuteThread measures both engines on the heaviest
// single-thread workload in the resnet50v2 schedule: the reference
// tree-walking interpreter, and the compiled engine running as the
// analysis runs it — through one warm frame holding the launch's
// parameters bound once, into a caller-owned result (zero allocations
// per run, as TestZeroAlloc pins).
func BenchmarkExecuteThread(b *testing.B) {
	prog := compileZoo(b, "resnet50v2")
	k, l := heaviestLaunch(b, prog)
	g := BuildDepGraph(k)
	slice := BuildControlSlice(k, g)
	ctx := ThreadCtx{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteThread(k, slice, l.Params, ctx, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		ck, err := Compile(k, slice, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fr := &frame{}
		fr.bindParams(k, l.Params)
		var res ExecResult
		if err := ck.exec(k, l.Params, ctx, fr, nil, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ck.exec(k, l.Params, ctx, fr, nil, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSliceVsFull isolates the interpreter cost difference between
// control-slice execution and full interpretation.
func BenchmarkSliceVsFull(b *testing.B) {
	prog := compileZoo(b, "resnet50v2")
	b.Run("sliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeProgram(prog, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeProgram(prog, Options{Exec: ExecOptions{Full: true}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildGraphs measures CFG + dependency-graph + slice
// construction without execution. The graphs are built over the
// decoded body, which the analysis reads from its static gate, so the
// decode runs once, outside the measured loop.
func BenchmarkBuildGraphs(b *testing.B) {
	prog := compileZoo(b, "inceptionv3")
	decoded := make([]*ptx.DecodedKernel, len(prog.Module.Kernels))
	for i, k := range prog.Module.Kernels {
		decoded[i] = ptx.DecodeKernel(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range decoded {
			if _, err := BuildCFG(d.Kernel); err != nil {
				b.Fatal(err)
			}
			_ = buildControlSlice(d, buildDepGraph(d))
		}
	}
}
