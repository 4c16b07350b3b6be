package dca

import (
	"testing"

	"cnnperf/internal/ptx"
)

// FuzzEngineDifferential holds the compiled engine to the reference
// interpreter on arbitrary accepted PTX: for every kernel, in sliced and
// full mode, as one lane and as the in-bounds/out-of-bounds pair the
// analysis runs, both engines must agree on Steps, Interpreted,
// BackBranches and the per-class histogram — and on whether execution
// fails, with the same error text. The dependency graph and control
// slice built over the decoded kernel must equal the string-walking
// oracle's.
func FuzzEngineDifferential(f *testing.F) {
	const header = ".version 6.0\n.target sm_61\n.address_size 64\n"
	seeds := []string{
		// The Fig. 2-style nvcc fragment.
		header + ".visible .entry fusion_135(\n.param .u64 fusion_135_param_0\n)\n{\n" +
			".reg .pred %p<14>;\n.reg .b32 %r<20>;\n.reg .b64 %rd<12>;\n" +
			"mov.u32 %r13, %ctaid.x;\nmov.u32 %r14, %tid.x;\nshl.b32 %r15, %r13, 10;\nshl.b32 %r16, %r14, 2;\n" +
			"or.b32 %r1, %r16, %r15;\nsetp.lt.u32 %p1, %r1, 718296;\n@%p1 bra LBB0_2;\nbra.uni LBB0_1;\n" +
			"LBB0_2:\nld.param.u64 %rd10, [fusion_135_param_0];\nLBB0_1:\nret;\n}\n",
		// A counted loop with a trailing label.
		header + ".visible .entry k(\n.param .u64 k_param_0\n)\n{\nmov.u32 %r1, 0;\nLOOP:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra LOOP;\nEXIT:\nret;\n}\n",
		// Affine-loop shapes the compiled engine resolves in closed form:
		// non-unit step, le exit, countdown, negated guard, flipped
		// operand order, special-register and parameter bounds.
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 3;\nsetp.le.s32 %p1, %r1, 31;\n@%p1 bra L;\nret;\n}\n",
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 20;\nL:\nsub.s32 %r1, %r1, 2;\nsetp.gt.s32 %p1, %r1, 0;\n@%p1 bra L;\nret;\n}\n",
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ge.s32 %p1, %r1, 9;\n@!%p1 bra L;\nret;\n}\n",
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.gt.s32 %p1, %ntid.x, %r1;\n@%p1 bra L;\nret;\n}\n",
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nld.param.u64 %rd1, [p0];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n}\n",
		// Shapes that must fall back to per-iteration interpretation:
		// an ne exit and a bound mutated inside the loop.
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ne.s32 %p1, %r1, 12;\n@%p1 bra L;\nret;\n}\n",
		header + ".visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r2, 40;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r2, %r2, 1;\nadd.s32 %r1, %r1, 2;\nsetp.lt.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n}\n",
		// Two content-identical kernels under different names.
		header +
			".visible .entry fusion_0_conv(\n.param .u64 fusion_0_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_0_conv_param_0];\nret;\n}\n" +
			".visible .entry fusion_7_conv(\n.param .u64 fusion_7_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_7_conv_param_0];\nret;\n}\n",
		// An unresolved branch target, which Parse rejects.
		header + ".visible .entry k(\n.param .u64 p\n)\n{\nbra missing;\n}\n",
	}
	// Two generated zoo kernels: a convolution's loop nest and a
	// depthwise convolution's.
	for _, z := range []struct{ model, kernel string }{
		{"alexnet", "fusion_1_conv2d"},
		{"mobilenetv2", "fusion_4_depthwise_conv2d"},
	} {
		m := compileZoo(f, z.model).Module
		k := m.Kernel(z.kernel)
		if k == nil {
			f.Fatalf("%s has no kernel %s", z.model, z.kernel)
		}
		src := ptx.Print(&ptx.Module{Version: m.Version, Target: m.Target, AddressSize: m.AddressSize, Kernels: []*ptx.Kernel{k}})
		if _, err := ptx.Parse(src); err != nil {
			f.Fatalf("%s %s does not reparse: %v", z.model, z.kernel, err)
		}
		seeds = append(seeds, src)
	}
	for _, tc := range operandSpellings {
		seeds = append(seeds, header+".visible .entry k(\n.param .u64 p0\n)\n{\n"+tc.body+"}\n")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.Parse(src)
		if err != nil {
			return
		}
		one := []ThreadCtx{{CtaID: 1, Tid: 3, NTid: 32, NCtaID: 2}}
		pair := []ThreadCtx{
			{CtaID: 0, Tid: 0, NTid: 32, NCtaID: 2},
			{CtaID: 1, Tid: 31, NTid: 32, NCtaID: 2},
		}
		for _, k := range m.Kernels {
			params := make(map[string]int64, len(k.Params))
			for i, p := range k.Params {
				params[p.Name] = int64(7 + 13*i)
			}
			checkGraphsMatchReference(t, k.Name, k)
			slice := BuildControlSlice(k, BuildDepGraph(k))
			for _, full := range []bool{false, true} {
				opts := ExecOptions{MaxSteps: 10_000, Full: full}
				ck, err := Compile(k, slice, opts)
				if err != nil {
					t.Fatalf("Compile %s (full=%t): %v", k.Name, full, err)
				}
				for _, ctxs := range [][]ThreadCtx{one, pair} {
					for _, ctx := range ctxs {
						want, werr := ExecuteThread(k, slice, params, ctx, opts)
						got, gerr := ck.Execute(k, params, ctx)
						if !sameRun(want, werr, got, gerr) {
							t.Fatalf("engines diverged for %s (full=%t, ctx %+v):\nreference: %+v err=%v\ncompiled:  %+v err=%v",
								k.Name, full, ctx, want, werr, got, gerr)
						}
					}
				}
			}
		}
	})
}
