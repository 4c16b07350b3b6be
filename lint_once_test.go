package cnnperf_test

import (
	"context"
	"reflect"
	"testing"

	"cnnperf"
	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// TestLintCNNAnalysesEachBodyOnce lints alexnet, whose kernels include
// content-identical copies, without a Config.Cache: the call still
// analyses each distinct body once (one "absint" span each) and returns
// exactly the uncached lint's diagnostics.
func TestLintCNNAnalysesEachBodyOnce(t *testing.T) {
	cfg := cnnperf.DefaultConfig()
	m, err := zoo.Build("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ptxgen.Compile(m, cfg.PTX)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for _, k := range prog.Module.Kernels {
		distinct[analysiscache.Fingerprint(k)] = true
	}
	if len(distinct) == len(prog.Module.Kernels) {
		t.Fatalf("alexnet has no content-identical kernels (%d); the test shows nothing", len(distinct))
	}

	tr := obs.NewTracer()
	got, err := cnnperf.LintCNNContext(obs.WithTracer(context.Background(), tr), "alexnet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.StageTotals()["absint"].Count; n != len(distinct) {
		t.Errorf("lint recorded %d absint spans, want one per distinct body (%d)", n, len(distinct))
	}
	if want := ptxanalysis.Lint(prog.Module); !reflect.DeepEqual(got, want) {
		t.Errorf("LintCNNContext differs from the uncached lint:\n%v\nwant\n%v", got, want)
	}
}
