package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/core"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/server"
	"cnnperf/internal/zoo"
)

// alexnetPTX is the PTX text of alexnet under the default pipeline
// configuration (batch 16): 19 kernels.
func alexnetPTX(t *testing.T) (string, *ptx.Module) {
	t.Helper()
	prog, err := ptxgen.Compile(zoo.MustBuild("alexnet"), core.DefaultConfig().PTX)
	if err != nil {
		t.Fatal(err)
	}
	return ptx.Print(prog.Module), prog.Module
}

// TestLintReadsPredictAnalysis checks that /v1/lint reads the static
// analysis entries a predict of the same payload already cached: the
// predict leaves each kernel's entry at the gate level, and the lint
// completes that same entry in place to the full level. It adds no
// cache miss, and its body is byte-identical to a lint computed from
// scratch.
func TestLintReadsPredictAnalysis(t *testing.T) {
	src, _ := alexnetPTX(t)
	// A kernel with dead stores, so the lint has findings to report.
	src += ".visible .entry dead(\n.param .u64 dead_param_0\n)\n{\nmov.u32 %r1, 0;\nmov.u32 %r2, 5;\nret;\n}\n"
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, server.Config{})
	if code, raw := postJSON(t, ts.URL+"/v1/predict", `{"ptx":`+mustQuote(src)+`,"gpus":["gtx1080ti"]}`); code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, raw)
	}
	lintBody := `{"ptx":` + mustQuote(src) + `}`
	before := s.CacheStats().Misses
	code, warm := postJSON(t, ts.URL+"/v1/lint", lintBody)
	if code != http.StatusOK {
		t.Fatalf("lint status %d: %s", code, warm)
	}
	if d := s.CacheStats().Misses - before; d != 0 {
		t.Errorf("lint after predict missed the cache %d times, want 0", d)
	}

	_, fresh := newTestServer(t, server.Config{})
	code, cold := postJSON(t, fresh.URL+"/v1/lint", lintBody)
	if code != http.StatusOK {
		t.Fatalf("fresh lint status %d: %s", code, cold)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("lint over cached analyses differs from a fresh lint:\n warm %s\n cold %s", warm, cold)
	}
	var res server.LintResponse
	if err := json.Unmarshal(warm, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) == 0 {
		t.Fatal("the dead-store kernel produced no diagnostics")
	}
	if want := ptxanalysis.Lint(m); !reflect.DeepEqual(res.Diagnostics, want) {
		t.Errorf("served diagnostics differ from ptxanalysis.Lint:\n%v\nwant\n%v", res.Diagnostics, want)
	}
}

// TestStoreSkipsLegacyRecords boots replicas on a store, and on a
// snapshot of it, that still hold records of namespaces older builds
// wrote and this one has no codec for: lint/ (the DCA gate's findings,
// from builds with a separate lint namespace), dcac/ (compiled DCA
// bytecode) and ptxa/ (static analyses); the bytecode and the analyses
// are now rebuilt from the kernel text. Both boots must open, never
// read those records (no decode error, every payload left in place) and
// answer byte-identically to a cold process.
func TestStoreSkipsLegacyRecords(t *testing.T) {
	src, m := alexnetPTX(t)
	dir := t.TempDir()
	store, err := artifactstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type record struct{ ns, key, payload string }
	var legacy []record
	for _, k := range m.Kernels {
		// The legacy lint payload: a version-1 envelope of the kernel's
		// error-severity diagnostics (none for generated kernels).
		legacy = append(legacy, record{"lint", analysiscache.KernelKey("lint", k), `{"version":1,"diags":[]}`})
		// dcac records under the keys those builds looked up for the zoo
		// (1M steps) and raw-PTX (5M steps) step limits. The payload
		// would not decode as bytecode: a build that still read the
		// namespace would count a decode error and overwrite it.
		for _, steps := range []string{"1000000", "5000000"} {
			legacy = append(legacy, record{"dcac",
				analysiscache.KernelKey("dcac", k, "full=false;maxsteps="+steps+";layout=2"), `{"version":1}`})
		}
	}
	// ptxa records as the builds that persisted them wrote them, under
	// the keys they looked up for these kernels: real payloads, which a
	// build that still read the namespace would serve from disk.
	ptxaFile, err := os.ReadFile("testdata/legacy_ptxa_alexnet.txt")
	if err != nil {
		t.Fatal(err)
	}
	ptxaKeys := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(ptxaFile)), "\n") {
		key, payload, ok := strings.Cut(line, "\t")
		if !ok || !strings.HasPrefix(payload, `{"version":1,`) {
			t.Fatalf("malformed legacy ptxa line %.80q", line)
		}
		legacy = append(legacy, record{"ptxa", key, payload})
		ptxaKeys[key] = true
	}
	for _, k := range m.Kernels {
		if key := analysiscache.KernelKey("ptxa", k); !ptxaKeys[key] {
			t.Fatalf("no legacy ptxa record for kernel %s (%s)", k.Name, key)
		}
	}
	for _, ns := range []string{"lint", "dcac", "ptxa"} {
		if err := store.EnsureNamespace(ns, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range legacy {
		if err := store.Put(context.Background(), r.ns, r.key, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	untouched := func(when string) {
		t.Helper()
		for _, r := range legacy {
			got, ok, err := store.Get(context.Background(), r.ns, r.key)
			if err != nil || !ok || string(got) != r.payload {
				t.Fatalf("%s: legacy %s record %s was touched: ok=%t err=%v payload %.80q", when, r.ns, r.key, ok, err, got)
			}
		}
	}

	reqs := []string{
		`{"ptx":` + mustQuote(src) + `,"gpus":["gtx1080ti"]}`,
		`{"model":"alexnet","gpus":["gtx1080ti"]}`,
	}
	answers := func(url string) [][]byte {
		var out [][]byte
		for _, req := range reqs {
			code, raw := postJSON(t, url+"/v1/predict", req)
			if code != http.StatusOK {
				t.Fatalf("predict status %d: %s", code, raw)
			}
			out = append(out, raw)
		}
		return out
	}
	_, tsCold := newTestServer(t, server.Config{})
	cold := answers(tsCold.URL)

	s1, ts1 := newStoreTestServer(t, server.Config{StoreDir: dir})
	if got := answers(ts1.URL); !reflect.DeepEqual(got, cold) {
		t.Fatalf("store with legacy records answers differently:\n got %s\nwant %s", got, cold)
	}
	if n := s1.ArtifactTier().DecodeErrors(); n != 0 {
		t.Errorf("store boot decoded %d records it has no codec for", n)
	}
	untouched("store boot")
	snap := filepath.Join(t.TempDir(), "store.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ArtifactTier().Store().Export(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot must carry the legacy records, or its boot proves
	// nothing about skipping them.
	inSnap := make(map[string]int)
	sf, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = artifactstore.ReadSnapshot(sf, func(ns, _ string, _ []byte) error {
		inSnap[ns]++
		return nil
	})
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if inSnap["lint"] == 0 || inSnap["dcac"] == 0 || inSnap["ptxa"] != len(ptxaKeys) {
		t.Fatalf("snapshot holds %d lint, %d dcac and %d ptxa records, want all three (%d ptxa)",
			inSnap["lint"], inSnap["dcac"], inSnap["ptxa"], len(ptxaKeys))
	}
	s2, ts2 := newStoreTestServer(t, server.Config{SnapshotFile: snap})
	if got := answers(ts2.URL); !reflect.DeepEqual(got, cold) {
		t.Fatalf("snapshot with legacy records answers differently:\n got %s\nwant %s", got, cold)
	}
	if n := s2.ArtifactTier().DecodeErrors(); n != 0 {
		t.Errorf("snapshot boot decoded %d records it has no codec for", n)
	}
	untouched("snapshot boot")
}
