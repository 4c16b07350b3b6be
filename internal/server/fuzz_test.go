package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnnperf/internal/server"
)

// FuzzPredictHandler drives /v1/predict with arbitrary request bodies:
// whatever the payload, the handler must answer with a known status,
// a well-formed JSON body (a PredictResponse on 200, an ErrorEnvelope
// otherwise), and must never panic. The PTX seeds mirror the
// internal/ptx fuzz corpus so the mutator explores the raw-assembly
// analysis path, not just the JSON decoder.
func FuzzPredictHandler(f *testing.F) {
	// Kernel sources lifted from the internal/ptx fuzz seed corpus.
	ptxSeeds := []string{
		testPTX,
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.ne.s32 %p1, %r1, 12;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p0\n)\n{\nmov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;\nsetp.gt.s32 %p1, %ntid.x, %r1;\n@%p1 bra L;\nret;\n}\n",
		".version 6.0\n.target sm_61\n.address_size 64\n.visible .entry k(\n.param .u64 p\n)\n{\nbra missing;\n}\n",
		".version 6.0\n.address_size banana\n",
		"garbage line\n",
		"",
	}
	seeds := []string{
		`{"model":"alexnet","gpus":["gtx1080ti"]}`,
		`{"model":"alexnet","gpus":["gtx1080ti","v100s"]}`,
		`{"model":"nosuchnet","gpus":["gtx1080ti"]}`,
		`{"model":"alexnet","gpus":[]}`,
		`{"model":"alexnet"}`,
		`{"gpus":["gtx1080ti"]}`,
		`{"model":"alexnet","ptx":"ret;","gpus":["gtx1080ti"]}`,
		`{"broken`,
		`[]`,
		`null`,
		`42`,
		`{"model":"alexnet","gpus":["gtx1080ti"],"grid_x":-1}`,
		`{"model":"alexnet","gpus":["gtx1080ti"],"extra":"field"}`,
		strings.Repeat("x", 1<<10),
	}
	for _, src := range ptxSeeds {
		req := server.PredictRequest{PTX: src, GPUs: []string{"v100s"}, GridX: 2, BlockX: 32, TrainableParams: 1000}
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	for _, s := range seeds {
		f.Add(s)
	}

	// One shared server for every fuzz iteration, like production: the
	// cache and metrics accumulate across inputs. The small step budget
	// bounds what a mutated kernel can cost.
	s := server.New(server.Config{
		Workers:      2,
		Timeout:      30 * time.Second,
		MaxBodyBytes: 1 << 16,
		PTXMaxSteps:  10_000,
	})
	f.Cleanup(s.Close)
	h := s.Handler()

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
		499: true, http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("unexpected status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		raw := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var pr server.PredictResponse
			if err := json.Unmarshal(raw, &pr); err != nil {
				t.Fatalf("200 body is not a PredictResponse: %v: %s", err, raw)
			}
			if len(pr.Predictions) == 0 {
				t.Fatalf("200 body carries no predictions: %s", raw)
			}
		} else {
			var env server.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("status %d body is not an ErrorEnvelope: %v: %s", rec.Code, err, raw)
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d envelope has empty code or message: %s", rec.Code, raw)
			}
		}
		mrec := httptest.NewRecorder()
		h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if n := promValue(t, mrec.Body.String(), "cnnperfd_panics_total"); n != 0 {
			t.Fatalf("handler panicked (%v recovered panics) on body %q", n, body)
		}
	})
}
