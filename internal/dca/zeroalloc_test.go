package dca

import (
	"fmt"
	"testing"

	"cnnperf/internal/ptx"
)

// TestZeroAlloc pins the allocation guarantee: once the frame is warm,
// steady-state compiled execution — batched_N runs N thread contexts
// back to back through one frame, single runs one thread carrying a
// per-instruction visit profile (the block-count path) — performs
// exactly zero heap allocations per run.
// The gate runs in CI with -count=1; any regression (an escaping
// closure, a map materialization, a frame buffer regrown per run) fails
// the build rather than silently eroding throughput.
func TestZeroAlloc(t *testing.T) {
	type workload struct {
		name   string
		k      *ptx.Kernel
		ck     *CompiledKernel
		params map[string]int64
	}
	var loads []workload
	for _, tc := range []struct {
		name string
		body string
	}{
		{"uniform_loop", divergenceKernels[0].body},
		{"tid_branch_diverges", divergenceKernels[1].body},
		{"tid_trip_counts", divergenceKernels[2].body},
		{"ne_exit_iterated", divergenceKernels[11].body},
	} {
		k := parseOne(t, tc.body)
		ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		loads = append(loads, workload{tc.name, k, ck, nil})
	}
	// The heaviest real workload: the deepest loop nest in the
	// resnet50v2 schedule.
	prog := compileZoo(t, "resnet50v2")
	rk, rl := heaviestLaunch(t, prog)
	rck, err := Compile(rk, BuildControlSlice(rk, BuildDepGraph(rk)), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, workload{"resnet50v2_heaviest", rk, rck, rl.Params})

	for _, w := range loads {
		w := w
		for _, lanes := range []int{1, 2, 32} {
			lanes := lanes
			t.Run(fmt.Sprintf("%s/batched_%d", w.name, lanes), func(t *testing.T) {
				ctxs := make([]ThreadCtx, lanes)
				for i := range ctxs {
					ctxs[i] = ThreadCtx{Tid: int64(i % 32), CtaID: int64(i / 32), NTid: 32, NCtaID: 8}
				}
				fr := &frame{}
				runAll := func() {
					for _, ctx := range ctxs {
						w.ck.execute(w.k, w.params, ctx, fr, nil)
					}
				}
				runAll()
				if avg := testing.AllocsPerRun(50, runAll); avg != 0 {
					t.Errorf("%s threads=%d: %v allocs per warm run, want 0", w.name, lanes, avg)
				}
			})
		}
		t.Run(w.name+"/single", func(t *testing.T) {
			ctx := ThreadCtx{Tid: 3, CtaID: 1, NTid: 32, NCtaID: 8}
			fr := &frame{}
			visits := fr.visitCounts(0, len(w.k.Body))
			if _, err := w.ck.execute(w.k, w.params, ctx, fr, visits); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				w.ck.execute(w.k, w.params, ctx, fr, fr.visitCounts(0, len(w.k.Body)))
			})
			if avg != 0 {
				t.Errorf("%s: %v allocs per warm profiled execution, want 0", w.name, avg)
			}
		})
	}
}
