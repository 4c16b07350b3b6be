package dca

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// parseOne wraps a kernel body in a module skeleton and parses it.
func parseOne(t *testing.T, body string) *ptx.Kernel {
	t.Helper()
	src := ".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\n" + body + "}\n"
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return m.Kernels[0]
}

// bothEngines executes one thread on the reference interpreter and on
// the compiled bytecode, and requires identical counts
// and identical error behavior (including the message) from both. It
// returns the reference result.
func bothEngines(t *testing.T, k *ptx.Kernel, params map[string]int64, ctx ThreadCtx, opts ExecOptions) (ExecResult, error) {
	t.Helper()
	g := BuildDepGraph(k)
	slice := BuildControlSlice(k, g)
	want, werr := ExecuteThread(k, slice, params, ctx, opts)
	ck, cerr := Compile(k, slice, opts)
	if cerr != nil {
		t.Fatalf("Compile: %v", cerr)
	}
	got, gerr := ck.Execute(k, params, ctx)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("engines disagree on error: reference=%v compiled=%v", werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("error text diverged:\nreference: %v\ncompiled: %v", werr, gerr)
		}
		return want, werr
	}
	if got != want {
		t.Fatalf("counts diverged: reference=%+v compiled=%+v", want, got)
	}
	return want, werr
}

// hasClosedForm reports whether the compiled kernel registered at least
// one closed-form loop.
func hasClosedForm(ck *CompiledKernel) bool { return len(ck.loops) > 0 }

func compileFor(t *testing.T, k *ptx.Kernel, opts ExecOptions) *CompiledKernel {
	t.Helper()
	ck, err := Compile(k, BuildControlSlice(k, BuildDepGraph(k)), opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return ck
}

// TestCompiledLoopShapes sweeps the affine-loop shapes the closed-form
// solver must handle — and the near-miss shapes it must reject and
// iterate instead — requiring exact agreement with the reference.
func TestCompiledLoopShapes(t *testing.T) {
	ctx := ThreadCtx{CtaID: 1, Tid: 3, NTid: 64, NCtaID: 4}
	cases := []struct {
		name     string
		body     string
		params   map[string]int64
		closed   bool  // solver should engage
		backs    int64 // expected BackBranches (loop trips - 1), -1 to skip
		wantErr  bool
		maxSteps int64
	}{
		{
			name:   "unit_step_lt",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 15,
		},
		{
			name:   "step_two",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 2;\nsetp.lt.s32 %p1, %r1, 17;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 8,
		},
		{
			name:   "le_bound",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.le.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 16,
		},
		{
			name:   "countdown_gt",
			body:   "mov.u32 %r1, 10;\nL:\nsub.s32 %r1, %r1, 1;\nsetp.gt.s32 %p1, %r1, 0;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 9,
		},
		{
			name:   "countdown_ge",
			body:   "mov.u32 %r1, 10;\nL:\nsub.s32 %r1, %r1, 1;\nsetp.ge.s32 %p1, %r1, 0;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 10,
		},
		{
			name:   "negated_guard",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ge.s32 %p1, %r1, 16;\n@!%p1 bra L;\nret;\n",
			closed: true, backs: 15,
		},
		{
			name:   "flipped_operands",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.gt.s32 %p1, 16, %r1;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 15,
		},
		{
			name:   "sreg_bound",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %ntid.x;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 63,
		},
		{
			name:   "param_bound",
			body:   "ld.param.u64 %rd1, [p0];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n",
			params: map[string]int64{"p0": 33},
			closed: true, backs: 32,
		},
		{
			name:   "mac_body_skip_runs",
			body:   "mov.u32 %r1, 0;\nmov.f32 %f1, 0f00000000;\nmov.u64 %rd2, 64;\nL:\nmul.lo.s32 %r2, %r1, 4;\nld.global.f32 %f2, [%rd2];\nld.global.f32 %f3, [%rd2];\nfma.rn.f32 %f1, %f2, %f3, %f1;\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 100;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 99,
		},
		{
			name:   "already_past_bound",
			body:   "mov.u32 %r1, 50;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: true, backs: 0,
		},
		{
			name:   "ne_exit_falls_back",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ne.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: false, backs: 15,
		},
		{
			name:   "eq_guard_falls_back",
			body:   "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.eq.s32 %p1, %r1, 1;\n@%p1 bra L;\nret;\n",
			closed: false, backs: 1,
		},
		{
			name:   "wrong_direction_hits_limit",
			body:   "mov.u32 %r1, 0;\nL:\nsub.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: false, backs: -1, wantErr: true, maxSteps: 1000,
		},
		{
			name:   "nonconstant_step_falls_back",
			body:   "mov.u32 %r2, 1;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, %r2;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra L;\nret;\n",
			closed: false, backs: 15,
		},
		{
			name:   "bound_written_in_loop_falls_back",
			body:   "mov.u32 %r2, 30;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r2, %r2, 1;\nadd.s32 %r1, %r1, 2;\nsetp.lt.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n",
			closed: false, backs: 29,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := parseOne(t, tc.body)
			opts := ExecOptions{MaxSteps: tc.maxSteps}
			ck := compileFor(t, k, opts)
			if got := hasClosedForm(ck); got != tc.closed {
				t.Errorf("closed-form detection = %t, want %t", got, tc.closed)
			}
			res, err := bothEngines(t, k, tc.params, ctx, opts)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %t", err, tc.wantErr)
			}
			if tc.backs >= 0 && res.BackBranches != tc.backs {
				t.Errorf("BackBranches = %d, want %d", res.BackBranches, tc.backs)
			}
		})
	}
}

// TestCompiledFullModeEquivalence re-runs a data-carrying loop under
// Full interpretation, where global loads read as zero and every
// instruction is evaluated.
func TestCompiledFullModeEquivalence(t *testing.T) {
	body := "mov.u32 %r1, 0;\nmov.f32 %f1, 0f00000000;\nmov.u64 %rd2, 64;\nL:\nld.global.f32 %f2, [%rd2];\nfma.rn.f32 %f1, %f2, %f2, %f1;\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 40;\n@%p1 bra L;\nret;\n"
	k := parseOne(t, body)
	res, err := bothEngines(t, k, nil, ThreadCtx{NTid: 32, NCtaID: 1}, ExecOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != res.Interpreted {
		t.Errorf("Full mode interpreted %d of %d steps", res.Interpreted, res.Steps)
	}
}

// TestCompiledErrorTextEquivalence pins the error-path parity: the
// bytecode engine must fail with the reference interpreter's exact
// message, including on lazily-lowered bad instructions.
func TestCompiledErrorTextEquivalence(t *testing.T) {
	ctx := ThreadCtx{NTid: 32, NCtaID: 1}
	cases := []struct {
		name string
		body string
		opts ExecOptions
	}{
		{name: "read_before_write", body: "add.s32 %r1, %r2, 1;\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 bra L;\nL:\nret;\n"},
		{name: "undefined_predicate", body: "@%p9 bra L;\nL:\nret;\n"},
		{name: "missing_param", body: "ld.param.u64 %rd1, [nope];\nsetp.lt.s32 %p1, %rd1, 4;\n@%p1 bra L;\nL:\nret;\n"},
		{name: "division_by_zero", body: "mov.u32 %r2, 0;\ndiv.s32 %r1, 4, %r2;\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 bra L;\nL:\nret;\n"},
		{name: "step_limit", body: "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 1000000;\n@%p1 bra L;\nret;\n", opts: ExecOptions{MaxSteps: 100}},
		{name: "data_load_in_slice", body: "ld.global.u32 %r1, [%rd2];\nsetp.lt.s32 %p1, %r1, 4;\n@%p1 bra L;\nL:\nret;\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := parseOne(t, tc.body)
			_, err := bothEngines(t, k, nil, ctx, tc.opts)
			if err == nil {
				t.Fatal("expected an error from both engines")
			}
		})
	}
}

// TestCompiledStepLimitInsideClosedForm places the MaxSteps limit in
// the middle of a closed-form loop: the solver must report the same
// abort the reference hits mid-iteration.
func TestCompiledStepLimitInsideClosedForm(t *testing.T) {
	k := parseOne(t, "mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 1000;\n@%p1 bra L;\nret;\n")
	ck := compileFor(t, k, ExecOptions{MaxSteps: 500})
	if !hasClosedForm(ck) {
		t.Fatal("closed form not detected")
	}
	_, err := bothEngines(t, k, nil, ThreadCtx{NTid: 1, NCtaID: 1}, ExecOptions{MaxSteps: 500})
	if err == nil {
		t.Fatal("expected the step-limit abort")
	}
}

// TestCompiledReenteredLoop re-enters one loop from an outer loop,
// checking the closed form applies cleanly on each entry with a
// different live induction start.
func TestCompiledReenteredLoop(t *testing.T) {
	body := "mov.u32 %r9, 0;\nOUTER:\nmov.u32 %r1, 0;\nINNER:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 7;\n@%p1 bra INNER;\nadd.s32 %r9, %r9, 1;\nsetp.lt.s32 %p2, %r9, 5;\n@%p2 bra OUTER;\nret;\n"
	k := parseOne(t, body)
	res, err := bothEngines(t, k, nil, ThreadCtx{NTid: 1, NCtaID: 1}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 outer trips * 6 inner back branches + 4 outer back branches.
	if want := int64(5*6 + 4); res.BackBranches != want {
		t.Errorf("BackBranches = %d, want %d", res.BackBranches, want)
	}
}

// TestCompiledExecuteAllocsIndependentOfTripCount asserts the
// steady-state property of the compiled engine: the per-call allocation
// count of Execute does not grow with the number of
// interpreter steps.
func TestCompiledExecuteAllocsIndependentOfTripCount(t *testing.T) {
	allocs := func(bound int64) float64 {
		// The ne exit defeats the closed form, forcing a genuine
		// per-iteration interpretation of `bound` trips.
		k := countedLoopNE(t, bound)
		slice := BuildControlSlice(k, BuildDepGraph(k))
		ck, err := Compile(k, slice, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := ck.Execute(k, nil, ThreadCtx{NTid: 1, NCtaID: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(4096)
	if small != large {
		t.Errorf("allocations grow with trip count: %v at 4 trips vs %v at 4096", small, large)
	}
}

// countedLoopNE is countedLoop with an ne exit test, which the
// closed-form solver must refuse.
func countedLoopNE(t *testing.T, n int64) *ptx.Kernel {
	t.Helper()
	k := &ptx.Kernel{Name: "counted_ne"}
	k.Append(ptx.Instruction{Opcode: "mov.u32", Operands: []string{"%r1", "0"}})
	if err := k.AddLabel("L"); err != nil {
		t.Fatal(err)
	}
	k.Append(ptx.Instruction{Opcode: "add.s32", Operands: []string{"%r1", "%r1", "1"}})
	k.Append(ptx.Instruction{Opcode: "setp.ne.s32", Operands: []string{"%p1", "%r1", imm(n)}})
	k.Append(ptx.Instruction{Pred: "%p1", Opcode: "bra", Operands: []string{"L"}})
	k.Append(ptx.Instruction{Opcode: "ret"})
	return k
}

// stripTime zeroes the wall-clock field so reports compare by content.
func stripTime(r *Report) *Report {
	c := *r
	c.AnalysisTime = time.Duration(0)
	return &c
}

// withoutVisits drops the block-visit profiles, leaving what a run
// without Options.BlockCounts reports.
func withoutVisits(r *Report) *Report {
	c := *r
	c.Kernels = append([]KernelReport(nil), r.Kernels...)
	for i := range c.Kernels {
		c.Kernels[i].BlockVisits = nil
	}
	return &c
}

// TestCompiledMatchesReferenceOnZoo is the zoo-wide equivalence gate.
// Every launch's representative threads — the in-bounds one and, when
// the grid overcovers, the out-of-bounds one — run on the compiled
// engine and on the reference interpreter, which must agree on the
// whole ExecResult and on the error text. AnalyzeProgram's report must
// then not depend on the analysis cache, and without BlockCounts it
// must be the profiled report minus its block visits: beyond
// DeepEqual, every KernelReport must serialize to identical bytes.
// -short runs a 4-model subset.
func TestCompiledMatchesReferenceOnZoo(t *testing.T) {
	models := zoo.TableIOrder
	if testing.Short() {
		models = []string{"alexnet", "mobilenetv2", "resnet50v2", "inceptionv3"}
	}
	fr := &frame{}
	for _, name := range models {
		prog := compileZoo(t, name)
		for i, l := range prog.Launches {
			k := prog.Module.Kernel(l.Kernel)
			slice := BuildControlSlice(k, BuildDepGraph(k))
			ck := compileFor(t, k, ExecOptions{})
			ctxs := []ThreadCtx{{NTid: int64(l.BlockX), NCtaID: int64(l.GridX)}}
			if int64(l.GridX)*int64(l.BlockX) > l.Threads {
				ctxs = append(ctxs, ThreadCtx{CtaID: int64(l.GridX) - 1, Tid: int64(l.BlockX) - 1, NTid: int64(l.BlockX), NCtaID: int64(l.GridX)})
			}
			for _, ctx := range ctxs {
				want, werr := ExecuteThread(k, slice, l.Params, ctx, ExecOptions{})
				got, gerr := ck.execute(k, l.Params, ctx, fr, nil)
				if !sameRun(want, werr, got, gerr) {
					t.Fatalf("%s launch %d (%s, ctx %+v): engines diverged:\nreference: %+v err=%v\ncompiled:  %+v err=%v",
						name, i, k.Name, ctx, want, werr, got, gerr)
				}
			}
		}
		base, err := AnalyzeProgram(prog, Options{BlockCounts: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		legs := []struct {
			name string
			opts Options
		}{
			{"cache", Options{Cache: analysiscache.New(0), BlockCounts: true}},
			{"no visits", Options{}},
		}
		for _, leg := range legs {
			got, err := AnalyzeProgram(prog, leg.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, leg.name, err)
			}
			want := base
			if !leg.opts.BlockCounts {
				want = withoutVisits(base)
			}
			if !reflect.DeepEqual(stripTime(want), stripTime(got)) {
				t.Errorf("%s: %s report diverges", name, leg.name)
				continue
			}
			for i := range got.Kernels {
				wb, werr := MarshalKernelReport(&want.Kernels[i])
				gb, gerr := MarshalKernelReport(&got.Kernels[i])
				if werr != nil || gerr != nil {
					t.Fatalf("%s: marshal: %v / %v", name, werr, gerr)
				}
				if !bytes.Equal(wb, gb) {
					t.Errorf("%s: %s kernel %d serializes differently:\nwant: %s\ngot:  %s",
						name, leg.name, i, wb, gb)
					break
				}
			}
		}
	}
}

// TestCompiledKernelSharedAcrossRenames checks the positional parameter
// binding: two content-identical kernels under different names (and
// different parameter names) share one cached static analysis and still
// bind their own launch parameters correctly.
func TestCompiledKernelSharedAcrossRenames(t *testing.T) {
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" +
		".visible .entry alpha(\n.param .u64 alpha_n\n)\n{\n" +
		"ld.param.u64 %rd1, [alpha_n];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n}\n" +
		".visible .entry beta(\n.param .u64 beta_n\n)\n{\n" +
		"ld.param.u64 %rd1, [beta_n];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n}\n"
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cache := analysiscache.New(0)
	opts := Options{Cache: cache}
	launches := []struct {
		k      *ptx.Kernel
		params map[string]int64
		trips  int64
	}{
		{m.Kernels[0], map[string]int64{"alpha_n": 12}, 12},
		{m.Kernels[1], map[string]int64{"beta_n": 99}, 99},
	}
	for _, l := range launches {
		kr, err := AnalyzeKernelLaunch(l.k, ptxgen.Launch{Kernel: l.k.Name, GridX: 1, BlockX: 1, Threads: 1, Params: l.params}, opts)
		if err != nil {
			t.Fatalf("%s: %v", l.k.Name, err)
		}
		if kr.LoopIterations != l.trips-1 {
			t.Errorf("%s: LoopIterations = %d, want %d", l.k.Name, kr.LoopIterations, l.trips-1)
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("content-identical kernels never shared a cache entry: %s", s)
	}
}
