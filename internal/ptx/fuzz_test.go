package ptx_test

import (
	"strings"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/dca"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxgen"
)

// FuzzParse drives the parser with arbitrary byte soup: whatever the
// input, Parse must either return an error or a module that validates,
// prints, and reparses to the same static shape — and it must never
// panic. Accepted kernels additionally flow through the shared analysis
// cache: their content fingerprint must survive a print/reparse round
// trip, and the memoized dynamic code analysis must agree with the
// uncached one. The compiled engine's differential check against the
// reference interpreter is dca's FuzzEngineDifferential.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// The Fig. 2-style nvcc fragment of TestParseFig2Style.
		`// Generated by LLVM NVPTX Back-End
.version 6.0
.target sm_61
.address_size 64
.visible .entry fusion_135(
	.param .u64 fusion_135_param_0
)
{
	.reg .pred %p<14>;
	.reg .b32 %r<20>;
	.reg .b64 %rd<12>;
	mov.u32 %r13, %ctaid.x;
	mov.u32 %r14, %tid.x;
	shl.b32 %r15, %r13, 10;
	shl.b32 %r16, %r14, 2;
	or.b32 %r1, %r16, %r15;
	setp.lt.u32 %p1, %r1, 718296;
	@%p1 bra LBB0_2;
	bra.uni LBB0_1;
LBB0_2:
	ld.param.u64 %rd10, [fusion_135_param_0];
LBB0_1:
	ret;
}
`,
		// A counted loop with a trailing label.
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 k_param_0\n)\n{\nmov.u32 %r1, 0;\nLOOP:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, 16;\n@%p1 bra LOOP;\nEXIT:\nret;\n}\n",
		// Affine-loop shapes the compiled engine resolves in closed form:
		// non-unit step, le exit, countdown, negated guard, flipped
		// operand order, special-register and parameter bounds.
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 3;\nsetp.le.s32 %p1, %r1, 31;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 20;\nL:\nsub.s32 %r1, %r1, 2;\nsetp.gt.s32 %p1, %r1, 0;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ge.s32 %p1, %r1, 9;\n@!%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.gt.s32 %p1, %ntid.x, %r1;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nld.param.u64 %rd1, [p0];\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.lt.s32 %p1, %r1, %rd1;\n@%p1 bra L;\nret;\n}\n",
		// Shapes that must fall back to per-iteration interpretation:
		// an ne exit and a bound mutated inside the loop.
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ne.s32 %p1, %r1, 12;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r2, 40;\nmov.u32 %r1, 0;\nL:\nadd.s32 %r2, %r2, 1;\nadd.s32 %r1, %r1, 2;\nsetp.lt.s32 %p1, %r1, %r2;\n@%p1 bra L;\nret;\n}\n",
		// Two content-identical kernels under different names — the
		// canonicalization the analysis cache keys on must let the second
		// hit the first's entry.
		".version 6.0\n.target sm_61\n.address_size 64\n" +
			".visible .entry fusion_0_conv(\n.param .u64 fusion_0_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_0_conv_param_0];\nret;\n}\n" +
			".visible .entry fusion_7_conv(\n.param .u64 fusion_7_conv_param_0\n)\n{\n" +
			"mov.u32 %r1, %tid.x;\nsetp.lt.u32 %p1, %r1, 32;\n@%p1 bra DONE;\nret;\nDONE:\n" +
			"ld.param.u64 %rd1, [fusion_7_conv_param_0];\nret;\n}\n",
		// Broken fragments from TestParseErrors.
		".version 6.0\n.address_size banana\n",
		"garbage line\n",
		".visible .entry k()\n{\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p\n)\n{\nbra missing;\n}\n",
		// Structural edge cases.
		".entry",
		".visible .entry (\n)\n{\n}\n",
		"{}",
		".reg .b32 %r<x>;",
		"@",
		"a:b:c:;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.Parse(src)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil module without error")
		}
		// Parse validates internally; a second validation must agree.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted module fails Validate: %v", err)
		}
		// Print/reparse must round-trip structurally.
		text := ptx.Print(m)
		back, err := ptx.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not reparse: %v\n%s", err, text)
		}
		if back.StaticInstructions() != m.StaticInstructions() {
			t.Fatalf("round trip changed instruction count %d -> %d",
				m.StaticInstructions(), back.StaticInstructions())
		}
		if len(back.Kernels) != len(m.Kernels) {
			t.Fatalf("round trip changed kernel count %d -> %d", len(m.Kernels), len(back.Kernels))
		}
		// Instruction accessors must hold on arbitrary accepted input.
		for _, k := range m.Kernels {
			for _, in := range k.Body {
				_ = in.Dest()
				_ = in.Sources()
				_ = in.Class()
				if s := in.String(); !strings.HasSuffix(s, ";") {
					t.Fatalf("instruction render missing terminator: %q", s)
				}
			}
		}
		// The content address must be print/reparse stable.
		for i, k := range m.Kernels {
			if fp, fp2 := analysiscache.Fingerprint(k), analysiscache.Fingerprint(back.Kernels[i]); fp != fp2 {
				t.Fatalf("fingerprint of %s changed across print/reparse: %s -> %s", k.Name, fp, fp2)
			}
		}
		// The memoized dynamic code analysis must agree with the uncached
		// one on every accepted kernel; the second cached run exercises
		// the hit path against the same entry.
		cache := analysiscache.New(0)
		for _, k := range m.Kernels {
			l := ptxgen.Launch{Kernel: k.Name, GridX: 2, BlockX: 32, Threads: 48}
			opts := dca.Options{Exec: dca.ExecOptions{MaxSteps: 10_000}}
			plain, perr := dca.AnalyzeKernelLaunch(k, l, opts)
			opts.Cache = cache
			for run := 0; run < 2; run++ {
				cached, cerr := dca.AnalyzeKernelLaunch(k, l, opts)
				if (perr == nil) != (cerr == nil) {
					t.Fatalf("cached analysis of %s disagrees on error: %v vs %v", k.Name, perr, cerr)
				}
				if perr == nil && cached.Executed != plain.Executed {
					t.Fatalf("cached analysis of %s changed executed count %d -> %d",
						k.Name, plain.Executed, cached.Executed)
				}
			}
		}
	})
}
