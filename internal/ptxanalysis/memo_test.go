package ptxanalysis

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/obs"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis/absint"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// parsedAlexnet returns the alexnet batch-16 PTX text and its parse, so
// every kernel string points into the text, as in a request body.
func parsedAlexnet(t *testing.T) (string, *ptx.Module) {
	t.Helper()
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), ptxgen.Options{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := ptx.Print(prog.Module)
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, m
}

// forbiddenInMemo are the pass results a cache entry must not hold:
// they are large, and they point into the kernel text.
var forbiddenInMemo = []reflect.Type{
	reflect.TypeOf(ptx.Kernel{}), reflect.TypeOf(ptx.DecodedKernel{}),
	reflect.TypeOf(Liveness{}), reflect.TypeOf(RegSet(nil)),
	reflect.TypeOf(absint.Result{}), reflect.TypeOf(kernelPasses{}),
}

// checkHolds walks everything reachable from v and fails on a value of
// a forbidden type or a string whose bytes lie inside src.
func checkHolds(t *testing.T, what string, v reflect.Value, src string) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for _, f := range forbiddenInMemo {
			if v.Type() == f {
				t.Errorf("%s holds a %s", what, f)
				return
			}
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.String:
			if s := v.String(); len(s) > 0 {
				if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
					t.Errorf("%s holds %q, which pins the kernel text", what, s)
				}
			}
		}
	}
	walk(v)
}

// TestMemoCompletesInPlace runs the gate level over a module, then the
// lint over the same cache: the lint adds no entry and no miss,
// completes each entry once (one absint span per distinct body, though
// content-identical kernels share entries under other names), and
// answers exactly as an uncached lint. Neither level's entry holds a
// pass result or a string of the kernel text.
func TestMemoCompletesInPlace(t *testing.T) {
	src, m := parsedAlexnet(t)
	c := analysiscache.New(0)
	gates, err := AnalyzeModuleGateCachedContext(context.Background(), m, c)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for _, d := range gates.Digests {
		distinct[d.Key("ptxa")] = true
	}
	if s := c.Stats(); s.Misses != uint64(len(distinct)) || s.Entries != len(distinct) {
		t.Fatalf("gate pass over %d distinct kernels: %s", len(distinct), s)
	}
	memos := func() []*memo {
		var out []*memo
		for key := range distinct {
			v, ok := c.Resident(key)
			if !ok {
				t.Fatalf("no entry under %s", key)
			}
			out = append(out, v.(*memo))
		}
		return out
	}
	for _, e := range memos() {
		if e.full.Load() != nil {
			t.Fatalf("the gate pass completed %s", e.gate.Kernel)
		}
		checkHolds(t, "gate entry "+e.gate.Kernel, reflect.ValueOf(e.gate), src)
	}

	misses := c.Stats().Misses
	tr := obs.NewTracer()
	got := LintCached(obs.WithTracer(context.Background(), tr), m, c)
	if s := c.Stats(); s.Misses != misses || s.Entries != len(distinct) {
		t.Errorf("lint over gate entries: %s, want %d misses and %d entries", s, misses, len(distinct))
	}
	if n := tr.StageTotals()["absint"].Count; n != len(distinct) {
		t.Errorf("lint completed %d entries, want %d", n, len(distinct))
	}
	if want := Lint(m); !reflect.DeepEqual(got, want) {
		t.Errorf("lint over completed entries differs from an uncached lint:\n%v\nwant\n%v", got, want)
	}
	for _, e := range memos() {
		a := e.full.Load()
		if a == nil {
			t.Fatalf("the lint left %s at the gate level", e.gate.Kernel)
		}
		if a.CFG != e.gate.CFG {
			t.Errorf("%s: the completion rebuilt the CFG", e.gate.Kernel)
		}
		checkHolds(t, "full entry "+a.Kernel, reflect.ValueOf(a), src)
	}

	full, err := AnalyzeModuleCachedContext(context.Background(), m, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Kernels, want.Kernels) || !reflect.DeepEqual(full.Features(), want.Features()) {
		t.Error("the completed module analysis differs from an uncached one")
	}
	// The gate pass's Decoded belong to that call, so only the cached
	// levels compare.
	if fg := full.Gate(); !reflect.DeepEqual(fg.Kernels, gates.Kernels) || !reflect.DeepEqual(fg.Digests, gates.Digests) {
		t.Error("the completed analysis's gate level differs from the gate pass")
	}
}

// TestMemoCompletesOnce races full-level consumers on one gate-level
// entry: the full level is computed once, and every consumer reads the
// same value.
func TestMemoCompletesOnce(t *testing.T) {
	_, m := parsedAlexnet(t)
	k := m.Kernels[0]
	c := analysiscache.New(0)
	if _, _, err := AnalyzeKernelGateCached(k, c); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	got := make([]*KernelAnalysis, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, _, err := AnalyzeKernelCached(ctx, k, c)
			if err != nil {
				t.Error(err)
			}
			got[i] = a
		}()
	}
	wg.Wait()
	if n := tr.StageTotals()["absint"].Count; n != 1 {
		t.Errorf("%d consumers computed the full level %d times, want 1", len(got), n)
	}
	for i, a := range got {
		if a != got[0] {
			t.Errorf("consumer %d read another value than consumer 0", i)
		}
	}
}

// TestModuleGateDecodedPerCall checks that the gate pass hands the DCA
// the bodies it decoded, and only those: on a fresh cache every kernel
// whose entry the pass created carries its decoded body, equal to a
// fresh decode, and every kernel whose entry it read carries none;
// over the same cache again, no kernel carries one. The entries
// themselves hold no decoded body (TestMemoCompletesInPlace).
func TestModuleGateDecodedPerCall(t *testing.T) {
	_, m := parsedAlexnet(t)
	c := analysiscache.New(0)
	cold, err := AnalyzeModuleGateCachedContext(context.Background(), m, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Decoded) != len(m.Kernels) {
		t.Fatalf("%d decoded bodies for %d kernels", len(cold.Decoded), len(m.Kernels))
	}
	created := make(map[string]bool)
	for i, k := range m.Kernels {
		key := cold.Digests[i].Key("ptxa")
		dec := cold.Decoded[i]
		if created[key] {
			if dec != nil {
				t.Errorf("%s: read its entry but carries a decoded body", k.Name)
			}
			continue
		}
		created[key] = true
		if dec == nil || dec.Kernel != k {
			t.Errorf("%s: created its entry but carries no decoded body of it", k.Name)
		} else if !reflect.DeepEqual(dec, ptx.DecodeKernel(k)) {
			t.Errorf("%s: the handed-over body differs from a fresh decode", k.Name)
		}
	}
	warm, err := AnalyzeModuleGateCachedContext(context.Background(), m, c)
	if err != nil {
		t.Fatal(err)
	}
	for i, dec := range warm.Decoded {
		if dec != nil {
			t.Errorf("%s: a cached gate carries a decoded body", m.Kernels[i].Name)
		}
	}
}

// TestModuleGatedDecodedPerCall: the gate AnalyzeModuleGatedCachedContext
// returns carries the body of each kernel whose entry the call created
// or completed to the full level, and no other.
func TestModuleGatedDecodedPerCall(t *testing.T) {
	_, m := parsedAlexnet(t)
	ctx := context.Background()
	// checkDecoded fails unless g's bodies are exactly those of the first
	// kernel of each key in fresh, a fresh decode of it each.
	checkDecoded := func(what string, g *ModuleGate, fresh bool) {
		t.Helper()
		if len(g.Decoded) != len(m.Kernels) || len(g.Kernels) != len(m.Kernels) {
			t.Fatalf("%s: %d decoded bodies and %d gates for %d kernels", what, len(g.Decoded), len(g.Kernels), len(m.Kernels))
		}
		seen := make(map[string]bool)
		for i, k := range m.Kernels {
			key := g.Digests[i].Key("ptxa")
			first := !seen[key]
			seen[key] = true
			switch dec := g.Decoded[i]; {
			case !fresh || !first:
				if dec != nil {
					t.Errorf("%s: %s carries a decoded body it did not decode", what, k.Name)
				}
			case dec == nil || dec.Kernel != k:
				t.Errorf("%s: %s carries no decoded body of its own", what, k.Name)
			case !reflect.DeepEqual(dec, ptx.DecodeKernel(k)):
				t.Errorf("%s: %s: the handed-over body differs from a fresh decode", what, k.Name)
			}
		}
	}
	full := func(c *analysiscache.Cache) *ModuleGate {
		t.Helper()
		ma, g, err := AnalyzeModuleGatedCachedContext(ctx, m, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := ma.Gate(); !reflect.DeepEqual(g.Kernels, want.Kernels) || !reflect.DeepEqual(g.Digests, want.Digests) {
			t.Fatal("the gate differs from the module analysis's")
		}
		return g
	}
	// A miss creates the entry at the full level.
	c := analysiscache.New(0)
	checkDecoded("cold", full(c), true)
	checkDecoded("warm", full(c), false)
	// A gate-level entry is completed to the full level.
	c = analysiscache.New(0)
	if _, err := AnalyzeModuleGateCachedContext(ctx, m, c); err != nil {
		t.Fatal(err)
	}
	checkDecoded("completed", full(c), true)
	checkDecoded("complete", full(c), false)
	// Uncached, every kernel decodes.
	g := full(nil)
	for i, k := range m.Kernels {
		if dec := g.Decoded[i]; dec == nil || dec.Kernel != k {
			t.Errorf("uncached: %s carries no decoded body of its own", k.Name)
		}
	}
}
