package server_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cnnperf/internal/server"
)

// memoHitAllocLimit bounds TestPredictMemoHitAllocs: the measured count
// of one memo-hit predict (81 on linux/amd64, Go 1.24) plus 5 %.
const memoHitAllocLimit = 85

// TestPredictMemoHitAllocs pins the allocations of a warm predict: a
// two-GPU alexnet request answered from the memo by a default server,
// through Handler(), request construction and response recorder
// included.
func TestPredictMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := server.New(server.Config{})
	defer s.Close()
	h := s.Handler()
	const body = `{"model":"alexnet","gpus":["gtx1080ti","v100s"]}`
	predict := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict: status %d: %s", rec.Code, rec.Body)
		}
	}
	predict() // the cold predict fills the memo
	allocs := testing.AllocsPerRun(200, predict)
	t.Logf("memo-hit alexnet predict: %.0f allocs", allocs)
	if allocs > memoHitAllocLimit {
		t.Fatalf("memo-hit alexnet predict: %.0f allocs, want <= %d", allocs, memoHitAllocLimit)
	}
}

// TestPTXContentKeyNoCopy pins the content key of a raw-PTX request,
// which the gateway routes on, and checks that deriving it does not copy
// the body: a key costs far fewer bytes than the body it hashes.
func TestPTXContentKeyNoCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	src := ".version 6.0\n.target sm_61\n.address_size 64\n" + strings.Repeat("// padding\n", 2000)
	req := server.PredictRequest{PTX: src, TrainableParams: 7, GridX: 3, BlockX: 64}
	const want = "ptx\x001127bdb8d39a7392e09ff9ae8d7557864c36e9c9dbfac7a050b9b8efc342702a\x007\x003\x0064"
	if got := req.ContentKey(); got != want {
		t.Errorf("ContentKey = %q, want %q", got, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		req.ContentKey()
	}
	runtime.ReadMemStats(&after)
	if perKey := (after.TotalAlloc - before.TotalAlloc) / runs; perKey >= uint64(len(src)) {
		t.Errorf("ContentKey of a %d-byte body allocates %d bytes", len(src), perKey)
	}
}
