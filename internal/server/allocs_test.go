package server_test

import (
	"net/http"
	"net/http/httptest"
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
