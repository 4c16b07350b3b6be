package dca

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cnnperf/internal/ptx"
)

// divergenceKernels are kernel bodies whose runs differ from thread to
// thread: uniform fast paths, tid-dependent branches, faults on some
// threads only, guarded writes read later, tid-dependent closed-form
// trip counts, and step-limit aborts inside loops.
var divergenceKernels = []struct {
	name     string
	body     string
	params   map[string]int64
	full     bool
	maxSteps int64
}{
	{
		name: "uniform_loop",
		body: "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 50;\n@%p1 bra L;\nret;\n",
	},
	{
		name: "tid_branch_diverges",
		body: "mov.u32 %r1, %tid.x;\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 bra A;\nmov.u32 %r2, 7;\nsetp.lt.s32 %p2, %r2, 99;\n@%p2 bra B;\nA:\nmov.u32 %r3, 2;\nsetp.lt.s32 %p3, %r3, 5;\n@%p3 bra B;\nB:\nret;\n",
	},
	{
		name: "tid_trip_counts",
		body: "mov.u32 %r2, %tid.x;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n",
	},
	{
		name: "ntid_bound_loop",
		body: "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %ntid.x;\n@%p1 bra L;\nret;\n",
	},
	{
		name: "div_by_tid_faults_lane0",
		body: "mov.u32 %r2, %tid.x;\ndiv.s32 %r1, 64, %r2;\nsetp.lt.s32 %p1, %r1, 100;\n@%p1 bra E;\nE:\nret;\n",
	},
	{
		name: "guarded_write_then_read",
		body: "mov.u32 %r1, %tid.x;\nsetp.lt.s32 %p1, %r1, 8;\n@%p1 mov.u32 %r2, 5;\nsetp.lt.s32 %p2, %r2, 9;\n@%p2 bra E;\nE:\nret;\n",
	},
	{
		name: "predicated_exit_varying_guard",
		body: "mov.u32 %r1, %tid.x;\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 ret;\nmov.u32 %r3, 1;\nsetp.lt.s32 %p3, %r3, 2;\n@%p3 bra E;\nE:\nret;\n",
	},
	{
		name:     "step_limit_mixed",
		body:     "mov.u32 %r2, %tid.x;\nmul.lo.s32 %r3, %r2, 100;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %r3;\n@%p1 bra L;\nret;\n",
		maxSteps: 900,
	},
	{
		name:   "param_bound_uniform",
		body:   "ld.param.u64 %rd1, [p0];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n",
		params: map[string]int64{"p0": 37},
	},
	{
		name: "ctaid_tid_product_path",
		body: "mov.u32 %r1, %ctaid.x;\nmov.u32 %r2, %ntid.x;\nmul.lo.s32 %r3, %r1, %r2;\nmov.u32 %r4, %tid.x;\nadd.s32 %r5, %r3, %r4;\nsetp.lt.s32 %p1, %r5, 40;\n@%p1 bra E;\nmov.u32 %r6, 1;\nE:\nret;\n",
	},
	{
		name: "full_mode_data_loop",
		body: "mov.u32 %r9, %tid.x;\nmov.u32 %r1, 0;\nmov.f32 %f1, 0f00000000;\nmov.u64 %rd2, 64;\nL:\nld.global.f32 %f2, [%rd2];\nfma.rn.f32 %f1, %f2, %f2, %f1;\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 20;\n@%p1 bra L;\nret;\n",
		full: true,
	},
	{
		name: "ne_exit_iterated_tid",
		body: "mov.u32 %r2, %tid.x;\nadd.s32 %r2, %r2, 4;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ne.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n",
	},
}

// checkLanes runs every thread context through the compiled engine and
// requires each to reproduce its reference execution exactly — counts
// and error text.
func checkLanes(t *testing.T, k *ptx.Kernel, params map[string]int64, ctxs []ThreadCtx, opts ExecOptions) {
	t.Helper()
	slice := BuildControlSlice(k, BuildDepGraph(k))
	ck, err := Compile(k, slice, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for i, ctx := range ctxs {
		want, werr := ExecuteThread(k, slice, params, ctx, opts)
		got, gerr := ck.Execute(k, params, ctx)
		if !sameRun(want, werr, got, gerr) {
			t.Fatalf("thread %d (ctx %+v): diverged:\nreference: %+v err=%v\ncompiled:  %+v err=%v", i, ctx, want, werr, got, gerr)
		}
	}
}

// sameRun reports whether two executions agree on the error decision
// and text and, when both succeed, on every count.
func sameRun(a ExecResult, aerr error, b ExecResult, berr error) bool {
	if (aerr == nil) != (berr == nil) {
		return false
	}
	if aerr != nil {
		return aerr.Error() == berr.Error()
	}
	return a == b
}

// TestBatchedDivergenceKernels sweeps the divergence suite over sets of
// thread contexts from degenerate (one thread, identical threads) to
// warp-sized mixes of blocks and block shapes.
func TestBatchedDivergenceKernels(t *testing.T) {
	laneSets := map[string][]ThreadCtx{
		"one_lane":  {{Tid: 3, CtaID: 1, NTid: 32, NCtaID: 2}},
		"all_same":  {{Tid: 5, NTid: 16, NCtaID: 1}, {Tid: 5, NTid: 16, NCtaID: 1}, {Tid: 5, NTid: 16, NCtaID: 1}},
		"tid_range": ctxRange(0, 16, 32, 2),
		"mixed_shapes": append(append(ctxRange(0, 8, 32, 2), ctxRange(0, 8, 64, 4)...),
			ThreadCtx{Tid: 63, CtaID: 3, NTid: 64, NCtaID: 4}),
	}
	for _, tc := range divergenceKernels {
		t.Run(tc.name, func(t *testing.T) {
			k := parseOne(t, tc.body)
			opts := ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps}
			for setName, ctxs := range laneSets {
				t.Run(setName, func(t *testing.T) {
					checkLanes(t, k, tc.params, ctxs, opts)
				})
			}
		})
	}
}

// ctxRange builds one thread context per tid in [lo, hi) under the
// given block and grid shape.
func ctxRange(lo, hi, ntid, nctaid int64) []ThreadCtx {
	var out []ThreadCtx
	for tid := lo; tid < hi; tid++ {
		out = append(out, ThreadCtx{Tid: tid, CtaID: tid % nctaid, NTid: ntid, NCtaID: nctaid})
	}
	return out
}

// TestBatchedRandomLanePartitions is the property test: random thread
// contexts (random special-register values, repeated contexts, several
// block shapes) must each agree with the reference interpreter on every
// divergence kernel.
func TestBatchedRandomLanePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, tc := range divergenceKernels {
		t.Run(tc.name, func(t *testing.T) {
			k := parseOne(t, tc.body)
			opts := ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps}
			for trial := 0; trial < 25; trial++ {
				nl := 1 + rng.Intn(33)
				ctxs := make([]ThreadCtx, nl)
				for i := range ctxs {
					ntid := int64(1) << uint(rng.Intn(7)) // 1..64
					nctaid := int64(1 + rng.Intn(5))
					ctxs[i] = ThreadCtx{
						Tid:    int64(rng.Intn(int(ntid))),
						CtaID:  int64(rng.Intn(int(nctaid))),
						NTid:   ntid,
						NCtaID: nctaid,
					}
				}
				// Occasionally repeat one context throughout.
				if trial%5 == 0 {
					for i := range ctxs {
						ctxs[i] = ctxs[0]
					}
				}
				checkLanes(t, k, tc.params, ctxs, opts)
			}
		})
	}
}

// TestBatchedArenaReuse runs many threads of many kernels through one
// frame — the production AnalyzeProgram pattern — and requires the
// recycled registers, written bits and parameter bindings to never leak
// state from one execution into the next.
func TestBatchedArenaReuse(t *testing.T) {
	fr := &frame{}
	for round := 0; round < 3; round++ {
		for _, tc := range divergenceKernels {
			k := parseOne(t, tc.body)
			opts := ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps}
			slice := BuildControlSlice(k, BuildDepGraph(k))
			ck, err := Compile(k, slice, opts)
			if err != nil {
				t.Fatalf("%s: Compile: %v", tc.name, err)
			}
			for i, ctx := range ctxRange(0, 12, 32, 2) {
				got, gerr := ck.execute(k, tc.params, ctx, fr, nil)
				want, werr := ExecuteThread(k, slice, tc.params, ctx, opts)
				if !sameRun(want, werr, got, gerr) {
					t.Fatalf("%s round %d thread %d: diverged after frame reuse: %+v err=%v, want %+v err=%v",
						tc.name, round, i, got, gerr, want, werr)
				}
			}
		}
	}
}

// TestBatchedConcurrentArenas executes threads from many goroutines,
// each with a private frame, against one shared CompiledKernel — the
// server's concurrency shape — and checks both correctness (under
// -race, also memory safety) and that no goroutines leak.
func TestBatchedConcurrentArenas(t *testing.T) {
	k := parseOne(t, divergenceKernels[2].body) // tid-dependent trip counts
	opts := ExecOptions{}
	slice := BuildControlSlice(k, BuildDepGraph(k))
	ck, err := Compile(k, slice, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := ctxRange(0, 32, 32, 2)
	want := make([]ExecResult, len(ctxs))
	for i, ctx := range ctxs {
		res, rerr := ExecuteThread(k, slice, nil, ctx, opts)
		if rerr != nil {
			t.Fatal(rerr)
		}
		want[i] = res
	}
	before := runtime.NumGoroutine()
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr := &frame{}
			for iter := 0; iter < 50; iter++ {
				for i, ctx := range ctxs {
					res, err := ck.execute(k, nil, ctx, fr, nil)
					if err != nil || res != want[i] {
						errs <- fmt.Errorf("thread %d diverged concurrently: %+v err=%v", i, res, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across concurrent execution: %d before, %d after", before, after)
	}
}

// TestBatchedSerializedKernel decodes a compiled kernel from its wire
// form and requires it to execute every thread exactly as the original.
func TestBatchedSerializedKernel(t *testing.T) {
	for _, tc := range divergenceKernels {
		k := parseOne(t, tc.body)
		opts := ExecOptions{Full: tc.full, MaxSteps: tc.maxSteps}
		ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), opts)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		blob, err := MarshalCompiledKernel(ck)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		back, err := UnmarshalCompiledKernel(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		for _, ctx := range ctxRange(0, 8, 32, 2) {
			want, werr := ck.Execute(k, tc.params, ctx)
			got, gerr := back.Execute(k, tc.params, ctx)
			if !sameRun(want, werr, got, gerr) {
				t.Fatalf("%s ctx %+v: decoded kernel diverged", tc.name, ctx)
			}
		}
	}
}

// TestBatchStatsAccounting pins the telemetry arithmetic: every compiled
// execution is one segment carrying one thread, whatever the kernel does.
func TestBatchStatsAccounting(t *testing.T) {
	for _, tc := range divergenceKernels[:2] {
		k := parseOne(t, tc.body)
		ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctxs := ctxRange(0, 16, 32, 1)
		before := BatchStats()
		for _, ctx := range ctxs {
			if _, err := ck.Execute(k, nil, ctx); err != nil {
				t.Fatal(err)
			}
		}
		after := BatchStats()
		segs, laneSegs := after.Segments-before.Segments, after.LaneSegments-before.LaneSegments
		if segs != int64(len(ctxs)) || laneSegs != segs {
			t.Errorf("%s: segments=%d laneSegs=%d after %d executions, want %d/%d",
				tc.name, segs, laneSegs, len(ctxs), len(ctxs), len(ctxs))
		}
	}
}
