package ptxanalysis_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

func alexnetModule(t *testing.T) *ptx.Module {
	t.Helper()
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), ptxgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Module
}

// TestAnalyzeModuleCancelled requires the module pass to stop before
// its first kernel under a context cancelled before the call.
func TestAnalyzeModuleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := analysiscache.New(0)
	ma, err := ptxanalysis.AnalyzeModuleCachedContext(ctx, alexnetModule(t), c)
	if !errors.Is(err, context.Canceled) || ma != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", ma, err)
	}
	if s := c.Stats(); s.Misses != 0 || s.Entries != 0 {
		t.Errorf("cancelled pass computed kernels: %s", s)
	}
}

// TestLintCachedMatchesLint requires the cached lint to return exactly
// the uncached diagnostics, malformed kernels included, and a repeat
// over a warm cache to analyse nothing.
func TestLintCachedMatchesLint(t *testing.T) {
	m := alexnetModule(t)
	bad := &ptx.Kernel{Name: "bad"}
	bad.Append(ptx.Instruction{Opcode: "bra", Operands: []string{"nowhere"}})
	m.Kernels = append(m.Kernels, bad)
	want := ptxanalysis.Lint(m)
	if !ptxanalysis.HasErrors(want) {
		t.Fatal("the malformed kernel reported no error")
	}
	c := analysiscache.New(0)
	if got := ptxanalysis.LintCached(context.Background(), m, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold cached lint differs:\n%v\nwant\n%v", got, want)
	}
	misses := c.Stats().Misses
	if got := ptxanalysis.LintCached(context.Background(), m, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm cached lint differs:\n%v\nwant\n%v", got, want)
	}
	// Errors are never cached, so only the malformed kernel misses again.
	if d := c.Stats().Misses - misses; d != 1 {
		t.Errorf("warm lint missed %d times, want 1 (the malformed kernel)", d)
	}
}
