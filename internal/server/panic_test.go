package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/obs"
	"cnnperf/internal/server"
)

// panickingTier panics on every probe of a static-analysis key. It
// stands in for a bug in analysis code that runs under a nested cache
// lookup on a pool worker.
type panickingTier struct{}

func (panickingTier) Get(key string) (any, bool) {
	if strings.HasPrefix(key, "ptxa:") {
		var empty []int
		_ = empty[len(key)]
	}
	return nil, false
}

func (panickingTier) Put(string, any) {}

// TestAnalysisPanicAnswers500: a panic under a nested analysis cache
// lookup is answered 500 internal without its frames, logged with its
// site and counted. Repeating the request, or sending the same kernel
// with another launch shape, answers again instead of waiting forever on
// the in-flight cache entry the panic interrupted.
func TestAnalysisPanicAnswers500(t *testing.T) {
	logBuf := &lockedBuffer{}
	s, ts := newTestServer(t, server.Config{Logger: obs.NewLogger(logBuf, obs.LevelInfo)})
	s.SetCacheTier(panickingTier{})
	body := `{"ptx":` + mustQuote(testPTX) + `,"gpus":["gtx1080ti"]%s}`
	bodies := []string{
		strings.Replace(body, "%s", "", 1),
		strings.Replace(body, "%s", "", 1),
		strings.Replace(body, "%s", `,"grid_x":4,"block_x":64`, 1),
	}
	type answer struct {
		code int
		raw  []byte
	}
	for i, b := range bodies {
		done := make(chan answer, 1)
		go func() {
			code, raw := postJSONQuiet(ts.URL+"/v1/predict", b)
			done <- answer{code, raw}
		}()
		var got answer
		select {
		case got = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d still waiting 30s after an analysis panic", i)
		}
		var env server.ErrorEnvelope
		if err := json.Unmarshal(got.raw, &env); err != nil {
			t.Fatalf("request %d: status %d, undecodable body %q", i, got.code, got.raw)
		}
		if got.code != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Fatalf("request %d: status %d code %q, want 500 internal: %s", i, got.code, env.Error.Code, got.raw)
		}
		if strings.Contains(env.Error.Message, ".go:") || strings.Contains(env.Error.Message, "panickingTier") {
			t.Errorf("request %d: the answer leaks the panic site: %q", i, env.Error.Message)
		}
	}
	if n := promValue(t, scrapePrometheus(t, ts.URL, "", ""), "cnnperfd_panics_total"); n != float64(len(bodies)) {
		t.Errorf("cnnperfd_panics_total = %v, want %d", n, len(bodies))
	}
	if log := logBuf.String(); !strings.Contains(log, "analysis panic") || !strings.Contains(log, "panickingTier.Get") {
		t.Errorf("the panic and its site were not logged:\n%s", log)
	}
}
