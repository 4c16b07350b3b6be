package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cnnperf/internal/core"
	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/parallel"
	"cnnperf/internal/ptx"
	"cnnperf/internal/ptxanalysis"
	"cnnperf/internal/ptxgen"
	"cnnperf/internal/zoo"
)

// PredictRequest is the /v1/predict input: exactly one of Model or PTX,
// plus the target GPUs.
type PredictRequest struct {
	// Model is a zoo model name.
	Model string `json:"model,omitempty"`
	// PTX is raw PTX assembly (alternative to Model).
	PTX string `json:"ptx,omitempty"`
	// TrainableParams supplies the c-predictor for PTX payloads (the
	// Static Analyzer extracts it from a topology; raw assembly has
	// none).
	TrainableParams int64 `json:"trainable_params,omitempty"`
	// GridX and BlockX shape the synthetic launch of PTX kernels.
	GridX  int `json:"grid_x,omitempty"`
	BlockX int `json:"block_x,omitempty"`
	// GPUs are the catalogue ids to predict for.
	GPUs []string `json:"gpus"`
}

// GPUPrediction is one per-GPU estimate.
type GPUPrediction struct {
	GPU     string  `json:"gpu"`
	GPUName string  `json:"gpu_name"`
	IPC     float64 `json:"ipc"`
}

// PredictResponse is the /v1/predict output. It carries only
// deterministic fields (no wall-clock timings), so identical requests
// produce byte-identical responses; latency lives in /metrics. The
// Debug block is the explicit opt-in exception (?debug=1).
type PredictResponse struct {
	Model                string          `json:"model"`
	ExecutedInstructions int64           `json:"executed_instructions"`
	TrainableParams      int64           `json:"trainable_params"`
	Kernels              int             `json:"kernels"`
	Predictions          []GPUPrediction `json:"predictions"`
	// Debug is the per-stage analysis breakdown, present only when the
	// request asked for it with ?debug=1. Deliberately excluded from the
	// default response so byte-identity of predictions holds.
	Debug *PredictDebug `json:"debug,omitempty"`
}

// PredictDebug is the ?debug=1 block: where the analysis time went.
// The stage timings are measured when the analysis is computed; a
// cache-served analysis reports the timings of that original run.
type PredictDebug struct {
	RequestID string       `json:"request_id,omitempty"`
	AnalysisS float64      `json:"analysis_seconds"`
	Stages    []StageDebug `json:"stages"`
}

// StageDebug is one pipeline stage of the debug breakdown.
type StageDebug struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// LintRequest is the /v1/lint input: exactly one of Model or PTX.
type LintRequest struct {
	Model string `json:"model,omitempty"`
	PTX   string `json:"ptx,omitempty"`
}

// LintResponse is the /v1/lint output.
type LintResponse struct {
	Target      string             `json:"target"`
	Diagnostics []ptxanalysis.Diag `json:"diagnostics"`
	ErrorCount  int                `json:"error_count"`
}

// ErrorEnvelope is the structured error body every non-2xx response
// carries.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the machine-readable error payload.
type ErrorBody struct {
	// Code is a stable machine-readable error class.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RequestID correlates the error with the access log line and the
	// X-Request-ID response header.
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(ctx context.Context, w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code: code, Message: msg, RequestID: obs.RequestID(ctx),
	}})
}

// decodeJSON reads one JSON document from the bounded body, mapping
// oversized bodies to 413 and malformed ones to 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(r.Context(), w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(r.Context(), w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// writeCtxError maps a context failure to its HTTP status.
func writeCtxError(ctx context.Context, w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(ctx, w, http.StatusGatewayTimeout, "timeout", "request deadline exceeded")
		return
	}
	// Client went away; 499 is the de-facto status for that.
	writeError(ctx, w, 499, "client_closed_request", "client cancelled the request")
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if (req.Model == "") == (req.PTX == "") {
		writeError(ctx, w, http.StatusBadRequest, "bad_request", "exactly one of \"model\" and \"ptx\" is required")
		return
	}
	if len(req.GPUs) == 0 {
		writeError(ctx, w, http.StatusBadRequest, "bad_request", "\"gpus\" must name at least one device")
		return
	}
	for _, id := range req.GPUs {
		if _, err := gpu.Lookup(id); err != nil {
			writeError(ctx, w, http.StatusNotFound, "unknown_gpu", err.Error())
			return
		}
	}
	var unit predictUnit
	if req.Model != "" {
		if !zooHas(req.Model) {
			writeError(ctx, w, http.StatusNotFound, "unknown_model", fmt.Sprintf("zoo: unknown model %q", req.Model))
			return
		}
		unit = modelUnit(req.Model)
	} else {
		if req.GridX < 0 || req.BlockX < 0 || req.GridX > 1024 || req.BlockX > 1024 {
			writeError(ctx, w, http.StatusBadRequest, "bad_request", "grid_x and block_x must be in [0, 1024]")
			return
		}
		if req.TrainableParams < 0 {
			writeError(ctx, w, http.StatusBadRequest, "bad_request", "trainable_params must be non-negative")
			return
		}
		unit = ptxUnit(req.PTX, core.PTXOptions{
			TrainableParams: req.TrainableParams,
			GridX:           req.GridX,
			BlockX:          req.BlockX,
		})
	}
	// A memoized unit is answered at once; a miss runs detached on the
	// pool. The srv.batch span covers both paths; on a miss its self
	// time is the wait for a worker.
	bctx, bspan := obs.Start(ctx, "srv.batch")
	res, hit := s.memoized(unit)
	var err error
	if !hit {
		res, err = s.runDetached(bctx, unit)
	}
	bspan.SetAttr(obs.Bool("memo_hit", hit))
	bspan.End()
	if err != nil {
		writeCtxError(ctx, w, err)
		return
	}
	if res.err != nil {
		s.writeUnitError(ctx, w, res.err)
		return
	}
	preds, err := core.PredictAnalyzedContext(ctx, res.est, res.a, req.GPUs)
	if err != nil {
		if ctx.Err() != nil {
			writeCtxError(ctx, w, ctx.Err())
			return
		}
		writeError(ctx, w, http.StatusUnprocessableEntity, "prediction_failed", err.Error())
		return
	}
	out := make([]GPUPrediction, len(preds))
	for i, p := range preds {
		out[i] = GPUPrediction{GPU: p.GPU, GPUName: p.GPUName, IPC: p.IPC}
	}
	resp := PredictResponse{
		Model:                res.a.Name,
		ExecutedInstructions: res.a.Report.Executed,
		TrainableParams:      res.a.Summary.TrainableParams,
		Kernels:              len(res.a.Report.Kernels),
		Predictions:          out,
	}
	if r.URL.Query().Get("debug") == "1" {
		dbg := &PredictDebug{
			RequestID: obs.RequestID(ctx),
			AnalysisS: res.a.DCATime.Seconds(),
		}
		for _, st := range res.a.Stages {
			dbg.Stages = append(dbg.Stages, StageDebug{Stage: st.Stage, Seconds: st.Duration.Seconds()})
		}
		resp.Debug = dbg
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeUnitError classifies an analysis failure: context failures keep
// their timeout semantics; a panic recovered by the pool is a server
// fault, logged with its site, counted and answered 500 like a handler
// panic; everything else is an unprocessable payload (parse errors, lint
// gate rejections, runaway executions).
func (s *Server) writeUnitError(ctx context.Context, w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(ctx, w, http.StatusGatewayTimeout, "timeout", "analysis deadline exceeded")
		return
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		s.metrics.panics.Inc()
		s.cfg.Logger.ErrorCtx(ctx, "analysis panic",
			obs.String("panic", fmt.Sprint(pe.Value)), obs.String("site", pe.Site))
		writeError(ctx, w, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", pe.Value))
		return
	}
	writeError(ctx, w, http.StatusUnprocessableEntity, "analysis_failed", err.Error())
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req LintRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if (req.Model == "") == (req.PTX == "") {
		writeError(r.Context(), w, http.StatusBadRequest, "bad_request", "exactly one of \"model\" and \"ptx\" is required")
		return
	}
	var (
		target string
		module *ptx.Module
	)
	if req.Model != "" {
		m, err := zoo.Build(req.Model)
		if err != nil {
			writeError(r.Context(), w, http.StatusNotFound, "unknown_model", err.Error())
			return
		}
		prog, err := ptxgen.Compile(m, s.pipeline.PTX)
		if err != nil {
			writeError(r.Context(), w, http.StatusUnprocessableEntity, "compile_failed", err.Error())
			return
		}
		target, module = req.Model, prog.Module
	} else {
		m, err := ptx.Parse(req.PTX)
		if err != nil {
			writeError(r.Context(), w, http.StatusUnprocessableEntity, "invalid_ptx", err.Error())
			return
		}
		target, module = "ptx", m
	}
	diags := ptxanalysis.LintCached(r.Context(), module, s.cache)
	if diags == nil {
		diags = []ptxanalysis.Diag{}
	}
	errs := 0
	for _, d := range diags {
		if d.Severity == ptxanalysis.SevError {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, LintResponse{Target: target, Diagnostics: diags, ErrorCount: errs})
}

// handleFlightRecorder serves the retained traces as one Chrome trace
// document; ?trace=<32-hex id> narrows it to a single distributed
// trace (for `obscheck stitch`).
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.fr.WriteChromeTrace(w, r.URL.Query().Get("trace"))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": len(zoo.Names()),
		"gpus":   len(gpu.IDs()),
	})
}

// handleMetrics serves the instrument registry as Prometheus text
// exposition. Query parameters and the Accept header are ignored, so
// scrapers that still send ?format=prometheus keep working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.writePrometheus(w)
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	// A known path reached through the catch-all means the method was
	// wrong (the typed mux patterns only match their own verb).
	switch r.URL.Path {
	case "/v1/predict", "/v1/lint":
		w.Header().Set("Allow", http.MethodPost)
		writeError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires POST", r.URL.Path))
		return
	case "/healthz", "/metrics":
		w.Header().Set("Allow", http.MethodGet)
		writeError(r.Context(), w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s requires GET", r.URL.Path))
		return
	}
	writeError(r.Context(), w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
}

func zooHas(name string) bool {
	for _, n := range zoo.Names() {
		if n == name {
			return true
		}
	}
	return false
}
