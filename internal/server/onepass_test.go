package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
// analysis a predict of the same payload already cached: it adds no
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

// TestStoreSkipsLegacyLintRecords boots replicas on a store, and on a
// snapshot of it, that still hold lint/ records: the DCA gate's
// findings, as builds with a separate lint namespace wrote them. Both
// must open, ignore those records and answer byte-identically to a
// cold process.
func TestStoreSkipsLegacyLintRecords(t *testing.T) {
	src, m := alexnetPTX(t)
	dir := t.TempDir()
	store, err := artifactstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureNamespace("lint", 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range m.Kernels {
		// The legacy payload: a version-1 envelope of the kernel's
		// error-severity diagnostics (none for generated kernels).
		if err := store.Put(context.Background(), "lint", analysiscache.KernelKey("lint", k), []byte(`{"version":1,"diags":[]}`)); err != nil {
			t.Fatal(err)
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
		t.Fatalf("store with lint records answers differently:\n got %s\nwant %s", got, cold)
	}
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
	_, ts2 := newStoreTestServer(t, server.Config{SnapshotFile: snap})
	if got := answers(ts2.URL); !reflect.DeepEqual(got, cold) {
		t.Fatalf("snapshot with lint records answers differently:\n got %s\nwant %s", got, cold)
	}
	if _, err := os.Stat(filepath.Join(dir, "lint")); err != nil {
		t.Errorf("the legacy lint namespace was touched: %v", err)
	}
}
