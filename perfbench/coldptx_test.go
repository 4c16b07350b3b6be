package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/server"
)

func newTestGen(t *testing.T, seed int64) (*coldGen, int64) {
	t.Helper()
	base, params, err := coldBase()
	if err != nil {
		t.Fatal(err)
	}
	g, err := newColdGen(base, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, params
}

func TestColdGenDeterministic(t *testing.T) {
	a, _ := newTestGen(t, 7)
	b, _ := newTestGen(t, 7)
	other, _ := newTestGen(t, 8)
	for i := 0; i < 50; i++ {
		ia, sa := a.next()
		ib, sb := b.next()
		_, so := other.next()
		if ia != i || ib != i || sa != sb {
			t.Fatalf("request %d: same seed gave different payloads", i)
		}
		if sa == so {
			t.Fatalf("request %d: seeds 7 and 8 gave the same payload", i)
		}
	}
}

// Every kernel of the first requests must be new to the analysis
// cache: no two share canonical text, and each passes the lint gate.
func TestColdGenKernelsUniqueAndLintClean(t *testing.T) {
	g, _ := newTestGen(t, 1)
	seen := make(map[string]int)
	const requests = 300
	for r := 0; r < requests; r++ {
		_, src := g.next()
		m, err := ptx.Parse(src)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		for _, k := range m.Kernels {
			fp := analysiscache.Fingerprint(k)
			if prev, ok := seen[fp]; ok {
				t.Fatalf("request %d kernel %s repeats a kernel of request %d", r, k.Name, prev)
			}
			seen[fp] = r
			if r < 20 {
				if errs := ptxanalysis.LintErrors(k); len(errs) > 0 {
					t.Fatalf("request %d kernel %s fails the lint gate: %v", r, k.Name, errs[0])
				}
			}
		}
	}
}

func TestColdGenPayloadsAreServed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full-inventory estimator")
	}
	g, params := newTestGen(t, 3)
	srv := server.New(server.Config{CacheSize: coldCacheSize})
	defer srv.Close()
	for i := 0; i < 3; i++ {
		_, src := g.next()
		body, err := json.Marshal(server.PredictRequest{PTX: src, TrainableParams: params, GPUs: benchGPUs})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
}
