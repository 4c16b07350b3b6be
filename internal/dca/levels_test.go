package dca

import (
	"context"
	"reflect"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
)

// hostileGateKernels are the kernels whose gate outcome depends on the
// static analysis: a use-before-def register, an empty body, a branch
// whose guard is provably constant and targets a label after the last
// instruction, and a branch to an unresolved label (which the parser
// rejects, so the kernel is built directly).
func hostileGateKernels(t *testing.T) []*ptx.Kernel {
	t.Helper()
	const hdr = ".version 6.0\n.target sm_61\n.address_size 64\n"
	entry := func(name, body string) string {
		return ".visible .entry " + name + "(\n.param .u64 " + name + "_p0\n)\n{\n" + body + "}\n"
	}
	var ks []*ptx.Kernel
	for _, src := range []string{
		entry("undef", "add.s32 %r1, %r2, 1;\nret;\n"),
		entry("empty", ""),
		entry("constbr", "mov.u32 %r1, 0;\nsetp.ne.u32 %p1, %r1, 0;\n@%p1 bra END;\nadd.u32 %r2, %r1, 1;\nret;\nEND:\n"),
	} {
		m, err := ptx.Parse(hdr + src)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, m.Kernels[0])
	}
	bad := &ptx.Kernel{Name: "unresolved", Params: []ptx.Param{{Type: ".u64", Name: "unresolved_p0"}}}
	bad.Append(ptx.Instruction{Opcode: "bra", Operands: []string{"NOWHERE"}})
	bad.Append(ptx.Instruction{Opcode: "ret"})
	return append(ks, bad)
}

// TestGateFullErrorEquivalence checks that the gate reads the same
// verdict off the gate level of the static analysis as off the full
// level, for each hostile kernel, and that a launch analysed over
// either answers alike. The texts are pinned: they are what the DCA
// answered when it read the full level.
func TestGateFullErrorEquivalence(t *testing.T) {
	want := map[string]string{
		"undef":      "dca: kernel undef rejected by static analysis: register %r2 may be read before it is written (1 error diagnostics)",
		"empty":      `dca: cfg: kernel "empty" has an empty body`,
		"constbr":    "",
		"unresolved": `dca: kernel unresolved rejected by static analysis: ptxanalysis: cfg: ptx: undefined label "NOWHERE" in kernel "unresolved" (1 error diagnostics)`,
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	ctx := context.Background()
	for _, k := range hostileGateKernels(t) {
		l := ptxgen.Launch{Kernel: k.Name, GridX: 2, BlockX: 32, Threads: 48,
			Params: map[string]int64{k.Params[0].Name: 7}, Node: k.Name}
		opts := Options{Cache: analysiscache.New(0), BlockCounts: true}
		gf := &kernelFacts{k: k}
		gf.a, gf.d, gf.err = ptxanalysis.AnalyzeKernelGateCached(k, opts.Cache)

		fullOpts := opts
		fullOpts.Cache = analysiscache.New(0)
		ff := &kernelFacts{k: k}
		full, d, err := ptxanalysis.AnalyzeKernelCached(ctx, k, fullOpts.Cache)
		if err == nil {
			ff.a = &full.KernelGate
		}
		ff.d, ff.err = d, err

		launch := func(f *kernelFacts, opts Options) (KernelReport, error) {
			if err := f.gate(); err != nil {
				return KernelReport{}, err
			}
			kr, _, err := analyzeKernelLaunch(ctx, f, l, opts, &frame{})
			return kr, err
		}
		gr, gerr := launch(gf, opts)
		fr, ferr := launch(ff, fullOpts)
		if errText(gerr) != errText(ferr) || errText(gerr) != want[k.Name] {
			t.Errorf("%s: gate level answers %q, full level %q, want %q", k.Name, errText(gerr), errText(ferr), want[k.Name])
		}
		if !reflect.DeepEqual(gr, fr) {
			t.Errorf("%s: report over the gate level %+v, over the full level %+v", k.Name, gr, fr)
		}
	}
}
