package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cnnperf/internal/analysiscache"
	"cnnperf/internal/artifactstore"
	"cnnperf/internal/core"
	"cnnperf/internal/dca"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
)

// The traced run replays the workloads in this process and reads the
// time of each layer from the spans the program already records: the
// flight recorder of an in-process server on the serving workloads, and
// an obs.Tracer on the context of each paper-pipeline operation. It adds
// no spans. The benchmark's own clock times only what records no span
// on these paths: the server handler as a whole, the artifact-store
// reads of warm-predict's set-up, and whole operations. Layer names
// follow the span taxonomy (DESIGN.md §10). A layer's time is the self
// time of its spans, the span's duration minus that of its child spans,
// so nested layers are not counted twice.
//
// Whichever workload is named, the traced run measures all three in
// turn: warm-predict's serving path, cold-ptx's, and the paper
// pipeline, which is not a gated workload (README.md, "Noise"). Every
// per-layer metric is therefore measured on every traced run; each
// carries the name of the workload it was measured on as a prefix.

// layerInfo names a per-layer metric, its unit, and the end-to-end
// metric it should move.
type layerInfo struct {
	name, unit, moves string
}

var regressorNames = []string{"linear_regression", "knn", "random_forest", "decision_tree", "xgboost"}

// pipelineSpanLayers are the pipeline layers reported by span self time.
var pipelineSpanLayers = []string{"ptx.codegen", "dca.lint", "dca.compile", "dca.exec", "static.analysis", "absint", "profiler.run"}

func perLayerMetrics() []layerInfo {
	var out []layerInfo
	add := func(workload, moves string, layers ...string) {
		for i := 0; i < len(layers); i += 2 {
			out = append(out, layerInfo{workload + "." + layers[i], layers[i+1], moves})
		}
	}
	const (
		warm = "warm-predict"
		cold = "cold-ptx"
		pipe = "paper-pipeline"
	)
	serving := func(w string) {
		add(w, "rss_peak_mb, p50_ms", "alloc_mb_per_op", "MB")
		add(w, "none (handler time not covered by a reported layer)", "unattributed_ms", "ms")
		add(w, "none (traced minus untraced p50_ms)", "trace.overhead_ms", "ms")
	}
	add(warm, "p50_ms, p90_ms, ops_per_s",
		"server.handler_us", "us", "server.batch_wait_us", "us", "server.batch_size", "count",
		"core.predict_us", "us", "http.overhead_us", "us", "analysiscache.hit_ratio", "ratio")
	add(warm, "setup_s", "artifactstore.snapshot_load_ms", "ms", "artifactstore.get_us", "us")
	serving(warm)
	add(cold, "p50_ms, ops_per_s",
		"server.handler_us", "us", "server.batch_wait_us", "us", "http.overhead_us", "us",
		"ptx.parse_us", "us", "dca.lint_us", "us", "dca.compile_us", "us", "dca.exec_us", "us",
		"dca.lanes_per_segment", "count", "static.analysis_us", "us", "model.analyze_ms", "ms",
		"analysiscache.hit_ratio", "ratio")
	add(cold, "rss_peak_mb, ops_per_s", "analysiscache.evictions_per_op", "count")
	serving(cold)
	add(pipe, "none (the untraced operation time; paper-pipeline is not gated)", "op_ms", "ms")
	add(pipe, "op_ms", "dataset.build_ms", "ms")
	for _, l := range pipelineSpanLayers {
		add(pipe, "op_ms", l+"_ms", "ms")
	}
	add(pipe, "op_ms", "mlearn.evaluate_ms", "ms")
	for _, r := range regressorNames {
		add(pipe, "op_ms", "mlearn.fit_ms."+r, "ms")
	}
	add(pipe, "op_ms", "analysiscache.hit_ratio", "ratio", "dca.lanes_per_segment", "count", "alloc_mb_per_op", "MB")
	add(pipe, "none (operation time not covered by a reported layer)", "unattributed_ms", "ms")
	add(pipe, "none (traced minus untraced op_ms)", "trace.overhead_ms", "ms")
	return out
}

// traceRun is the traced run: warm-predict's serving path, cold-ptx's,
// and the paper pipeline, in turn.
func traceRun(e *env) (*result, error) {
	vals := make(map[string]float64)
	var attempted, failed int64
	for _, part := range []func(*env, map[string]float64) (int64, int64, error){traceWarm, traceCold, pipelineLayers} {
		a, f, err := part(e, vals)
		attempted, failed = attempted+a, failed+f
		if err != nil {
			return nil, err
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	logf("traced run: seed=%d attempted=%d succeeded=%d failed=%d", e.seed, attempted, attempted-failed, failed)
	for _, li := range perLayerMetrics() {
		v := vals[li.name]
		res.Metrics[li.name] = metric{v, li.unit}
		logf("  %-44s %14.4f %-5s moves %s", li.name, v, li.unit, li.moves)
	}
	return res, nil
}

// spanEvent is one span of a Chrome trace document as obs exports it.
type spanEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds since the document's epoch
	Dur  float64        `json:"dur"` // microseconds
	Args map[string]any `json:"args"`
}

func (s spanEvent) arg(key string) string {
	v, _ := s.Args[key].(string)
	return v
}

// readSpans decodes a Chrome trace document into its spans and epoch.
func readSpans(doc []byte) ([]spanEvent, time.Time, error) {
	var d struct {
		TraceEvents []spanEvent `json:"traceEvents"`
		OtherData   struct {
			Epoch string `json:"epoch_unix_ns"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, time.Time{}, err
	}
	ns, err := strconv.ParseInt(d.OtherData.Epoch, 10, 64)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("trace document epoch: %w", err)
	}
	var spans []spanEvent
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans, time.Unix(0, ns), nil
}

// spanTimes sums the self time and the total time of spans by name;
// mlearn.fit spans are summed per regressor.
type spanTimes struct {
	self, total map[string]time.Duration
}

func newSpanTimes() *spanTimes {
	return &spanTimes{self: make(map[string]time.Duration), total: make(map[string]time.Duration)}
}

func (st *spanTimes) add(spans []spanEvent) {
	children := make(map[string]float64)
	for _, s := range spans {
		if p := s.arg("parent_span_id"); p != "" {
			children[p] += s.Dur
		}
	}
	for _, s := range spans {
		name := s.Name
		if name == "mlearn.fit" {
			name += "." + s.arg("regressor")
		}
		// Children that ran in parallel (the regressor fits) can add up
		// to more than their parent's duration.
		self := max(s.Dur-children[s.arg("span_id")], 0)
		st.self[name] += time.Duration(self * 1e3)
		st.total[name] += time.Duration(s.Dur * 1e3)
	}
}

// log prints the per-operation self and total time of every span name,
// largest self time first, so what unattributed_ms leaves out is
// located by the program's own spans.
func (st *spanTimes) log(what string, ops int) {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	logf("  %s spans per operation over %d operations (self / total ms):", what, ops)
	for _, n := range names {
		logf("    %-28s %10.3f / %10.3f", n, ms(st.self[n])/float64(ops), ms(st.total[n])/float64(ops))
	}
}

// timedHandler wraps the server handler and sums the time requests
// spend inside it while counting is on.
type timedHandler struct {
	h     http.Handler
	on    atomic.Bool
	sumNs atomic.Int64
	n     atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	if t.on.Load() {
		t.sumNs.Add(time.Since(t0).Nanoseconds())
		t.n.Add(1)
	}
}

func (t *timedHandler) mean() time.Duration {
	return time.Duration(t.sumNs.Load() / max(1, t.n.Load()))
}

// inProcess serves srv over a loopback listener with a timed handler.
type inProcess struct {
	srv *server.Server
	th  *timedHandler
	hs  *http.Server
	url string
}

// frConfig keeps up to 1024 sampled request traces, so a traced half
// leaves several hundred in the flight recorder.
var frConfig = obs.FlightRecorderConfig{SampleCapacity: 1024}

func serveInProcess(srv *server.Server) (*inProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	th := &timedHandler{h: srv.Handler()}
	p := &inProcess{srv: srv, th: th, hs: &http.Server{Handler: th}, url: "http://" + ln.Addr().String()}
	go func() { _ = p.hs.Serve(ln) }()
	return p, nil
}

func (p *inProcess) close() {
	_ = p.hs.Shutdown(context.Background())
	p.srv.Close()
}

// prom reads the server's Prometheus metrics in process.
func (p *inProcess) prom() map[string]float64 {
	rec := httptest.NewRecorder()
	p.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	return parseProm(rec.Body.String())
}

// requestSpans returns the spans of the srv.predict traces the flight
// recorder retained for requests that started at or after since, and
// the number of those requests.
func (p *inProcess) requestSpans(since time.Time) ([]spanEvent, int, error) {
	var buf bytes.Buffer
	if err := p.srv.FlightRecorder().WriteChromeTrace(&buf, ""); err != nil {
		return nil, 0, err
	}
	spans, epoch, err := readSpans(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	cut := float64(since.Sub(epoch).Nanoseconds()) / 1e3
	keep := make(map[string]bool)
	for _, s := range spans {
		if s.Name == "srv.predict" && s.arg("parent_span_id") == "" && s.TS >= cut {
			keep[s.arg("trace_id")] = true
		}
	}
	var out []spanEvent
	for _, s := range spans {
		if keep[s.arg("trace_id")] {
			out = append(out, s)
		}
	}
	return out, len(keep), nil
}

// batchSize is the mean number of requests per batch between two
// scrapes of the cnnperfd_batch_size histogram.
func batchSize(before, after map[string]float64) float64 {
	return ratioF(after["cnnperfd_batch_size_sum"]-before["cnnperfd_batch_size_sum"],
		after["cnnperfd_batch_size_count"]-before["cnnperfd_batch_size_count"])
}

func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func p50(lat []time.Duration) time.Duration {
	return summarize(lat, time.Second, 0, 0).p50
}

func meanOf(lat []time.Duration) time.Duration {
	return summarize(lat, time.Second, 0, 0).mean
}

// hitRatio is the analysis-cache hit ratio between two snapshots.
func hitRatio(before, after analysiscache.Stats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratioF(hits, hits+float64(after.Misses-before.Misses))
}

func lanesPerSegment(before, after dca.BatchExecStats) float64 {
	return ratioF(float64(after.LaneSegments-before.LaneSegments), float64(after.Segments-before.Segments))
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servingLayers runs a closed loop against an in-process server for
// half of the measured time untraced, then for the other half with the
// handler timed, and reads the layers of the traced half from the
// flight recorder's request traces. With more than one client, the
// analysis spans of a coalesced batch land in one of its requests'
// traces; the per-request means still hold.
func servingLayers(e *env, workload string, p *inProcess, clients int, next func(int) op, vals map[string]float64) (attempted, failed int64, err error) {
	set := func(name string, v float64) { vals[workload+"."+name] = v }
	c := newClient(clients)
	url := p.url + "/v1/predict"
	half := e.seconds / 2

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced := closedLoop(c, url, clients, half, next)
	runtime.ReadMemStats(&m1)

	cache0, dca0, prom0 := p.srv.CacheStats(), dca.BatchStats(), p.prom()
	since := time.Now()
	p.th.on.Store(true)
	traced := closedLoop(c, url, clients, half, next)
	p.th.on.Store(false)
	cache1, dca1, prom1 := p.srv.CacheStats(), dca.BatchStats(), p.prom()
	attempted, failed = untraced.attempted+traced.attempted, untraced.failed+traced.failed
	for _, lr := range []loopResult{untraced, traced} {
		if lr.firstErr != nil {
			logf("first failure: %v", lr.firstErr)
		}
	}

	spans, n, err := p.requestSpans(since)
	if err != nil {
		return attempted, failed, err
	}
	if n == 0 {
		return attempted, failed, fmt.Errorf("the flight recorder retained no request of the traced half")
	}
	st := newSpanTimes()
	st.add(spans)
	per := func(d time.Duration) time.Duration { return d / time.Duration(n) }
	handler := p.th.mean()
	layers := map[string]time.Duration{
		// The time srv.batch spends outside the analysis it runs: waiting
		// for the batch window and for the batch to be dispatched.
		"server.batch_wait": per(st.self["srv.batch"]),
		"core.predict":      per(st.total["features"] + st.total["predict"]),
		"ptx.parse":         per(st.self["ptx.parse"]),
		"dca.lint":          per(st.self["dca.lint"]),
		"dca.compile":       per(st.self["dca.compile"]),
		"dca.exec":          per(st.self["dca.exec"]),
		// The raw-PTX path runs its static analysis (absint included)
		// without a context, so it records no span of its own: it is the
		// self time of model.analyze.
		"static.analysis": per(st.self["model.analyze"]),
	}
	var covered time.Duration
	for name, d := range layers {
		set(name+"_us", us(d))
		covered += d
	}
	ops := float64(len(traced.lat))
	set("model.analyze_ms", ms(per(st.total["model.analyze"])))
	set("server.handler_us", us(handler))
	set("http.overhead_us", us(meanOf(traced.lat)-handler))
	set("server.batch_size", batchSize(prom0, prom1))
	set("analysiscache.hit_ratio", hitRatio(cache0, cache1))
	set("analysiscache.evictions_per_op", ratioF(float64(cache1.Evictions-cache0.Evictions), ops))
	set("dca.lanes_per_segment", lanesPerSegment(dca0, dca1))
	set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(max(1, untraced.attempted)))
	set("unattributed_ms", ms(handler-covered))
	set("trace.overhead_ms", ms(p50(traced.lat)-p50(untraced.lat)))
	logf("  clients=%d; untraced p50=%.3fms over %d ops, traced p50=%.3fms over %d ops; layers from %d flight-recorder request traces",
		clients, ms(p50(untraced.lat)), len(untraced.lat), ms(p50(traced.lat)), len(traced.lat), n)
	st.log("request", n)
	return attempted, failed, nil
}

// traceWarm is the traced part of warm-predict.
func traceWarm(e *env, vals map[string]float64) (attempted, failed int64, err error) {
	tSetup := time.Now()
	snap, err := buildSnapshot(e, 0)
	if err != nil {
		return 0, 0, err
	}
	// The snapshot load and record reads are timed through the tier API,
	// which takes no context and so records no store.* spans.
	tier, err := core.NewArtifactTier(nil)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if _, err := tier.LoadSnapshotFile(snap); err != nil {
		return 0, 0, err
	}
	load := time.Since(t0)
	getUs, nGet, err := timeTierGets(tier, snap)
	if err != nil {
		return 0, 0, err
	}
	srv, err := server.NewWithStore(server.Config{SnapshotFile: snap, FlightRecorder: frConfig})
	if err != nil {
		return 0, 0, err
	}
	p, err := serveInProcess(srv)
	if err != nil {
		srv.Close()
		return 0, 0, err
	}
	defer p.close()
	c := newClient(e.clients)
	first := make(map[string][]byte)
	for _, m := range warmModels {
		status, body, err := post(c, p.url+"/v1/predict", predictBody(m))
		if err == nil {
			err = wantOK(status, body)
		}
		if err != nil {
			return 0, 0, err
		}
		first[m] = body
	}
	if err := warmupLoop(c, p.url+"/v1/predict", e.clients, warmupRequests, func(i int) op {
		m := warmModels[i%len(warmModels)]
		return op{body: predictBody(m), check: sameAs(first[m])}
	}); err != nil {
		return 0, 0, err
	}
	setup := time.Since(tSetup)

	var counter atomic.Int64
	attempted, failed, err = servingLayers(e, "warm-predict", p, e.clients, func(w int) op {
		m := warmModels[(int64(w)*7+counter.Add(1)+e.seed)%int64(len(warmModels))]
		return op{body: predictBody(m), check: sameAs(first[m])}
	}, vals)
	vals["warm-predict.artifactstore.snapshot_load_ms"] = ms(load)
	vals["warm-predict.artifactstore.get_us"] = getUs
	logf("  set-up of this run %.3fs: snapshot load %.1fms (%.2f%%), %d record gets at %.1fus each",
		setup.Seconds(), ms(load), 100*load.Seconds()/setup.Seconds(), nGet, getUs)
	return attempted, failed, err
}

// timeTierGets times Tier.Get over up to 2000 records of the snapshot,
// spread evenly, and returns the mean in microseconds.
func timeTierGets(tier *artifactstore.Tier, snap string) (float64, int, error) {
	f, err := os.Open(snap)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var keys []string
	if _, err := artifactstore.ReadSnapshot(f, func(ns, key string, _ []byte) error {
		keys = append(keys, key)
		return nil
	}); err != nil {
		return 0, 0, err
	}
	step := max(1, len(keys)/2000)
	var total time.Duration
	n := 0
	for i := 0; i < len(keys); i += step {
		t0 := time.Now()
		if _, ok := tier.Get(keys[i]); !ok {
			return 0, 0, fmt.Errorf("snapshot record %q not readable", keys[i])
		}
		total += time.Since(t0)
		n++
	}
	return us(total) / float64(n), n, nil
}

// traceCold is the traced part of cold-ptx. It uses one client, so
// each retained request trace holds exactly the analysis of its own
// payload.
func traceCold(e *env, vals map[string]float64) (attempted, failed int64, err error) {
	base, params, err := coldBase()
	if err != nil {
		return 0, 0, err
	}
	gen, err := newColdGen(base, e.seed)
	if err != nil {
		return 0, 0, err
	}
	srv := server.New(server.Config{CacheSize: coldCacheSize, FlightRecorder: frConfig})
	p, err := serveInProcess(srv)
	if err != nil {
		srv.Close()
		return 0, 0, err
	}
	defer p.close()
	next := func(int) op {
		_, src := gen.next()
		b, _ := json.Marshal(server.PredictRequest{PTX: src, TrainableParams: params, GPUs: benchGPUs})
		return op{body: b, check: wantOK}
	}
	if err := warmupLoop(newClient(1), p.url+"/v1/predict", 1, coldWarmupRequests, next); err != nil {
		return 0, 0, err
	}
	attempted, failed, err = servingLayers(e, "cold-ptx", p, 1, next, vals)
	logf("  cache-size %d; %d payloads generated, every kernel new", coldCacheSize, gen.index)
	return attempted, failed, err
}

// pipelineLayers runs the paper pipeline in this process: one warm-up
// operation, untraced operations for half of the measured time, then
// operations with an obs.Tracer on their context for the other half.
// It fills the paper-pipeline.* metrics from the span self-times.
func pipelineLayers(e *env, vals map[string]float64) (attempted, failed int64, err error) {
	set := func(name string, v float64) { vals["paper-pipeline."+name] = v }
	ctx := context.Background()
	if _, err := pipelineOp(ctx); err != nil {
		return 0, 0, fmt.Errorf("pipeline warm-up: %w", err)
	}
	half := e.seconds / 2
	var untraced, traced []time.Duration
	count := func(err error) bool {
		attempted++
		if err != nil {
			failed++
			logf("pipeline operation failed: %v", err)
			return false
		}
		return true
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); time.Since(start) < half; {
		t0 := time.Now()
		_, err := pipelineOp(ctx)
		if count(err) {
			untraced = append(untraced, time.Since(t0))
		}
	}
	runtime.ReadMemStats(&m1)

	st := newSpanTimes()
	var hits float64
	dca0 := dca.BatchStats()
	for start := time.Now(); time.Since(start) < half; {
		tr := obs.NewTracer()
		t0 := time.Now()
		stats, err := pipelineOp(obs.WithTracer(ctx, tr))
		d := time.Since(t0)
		if !count(err) {
			continue
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			return attempted, failed, err
		}
		spans, _, err := readSpans(buf.Bytes())
		if err != nil {
			return attempted, failed, err
		}
		st.add(spans)
		traced = append(traced, d)
		hits += hitRatio(analysiscache.Stats{}, stats)
	}
	dca1 := dca.BatchStats()
	ops := len(traced)
	if ops == 0 || len(untraced) == 0 {
		return attempted, failed, fmt.Errorf("no pipeline operation completed")
	}
	per := func(d time.Duration) time.Duration { return d / time.Duration(ops) }
	var covered time.Duration
	for _, l := range pipelineSpanLayers {
		d := per(st.self[l])
		set(l+"_ms", ms(d))
		covered += d
	}
	eval := per(st.total["mlearn.evaluate"])
	covered += eval
	set("mlearn.evaluate_ms", ms(eval))
	for _, r := range regressorNames {
		set("mlearn.fit_ms."+r, ms(per(st.total["mlearn.fit."+r])))
	}
	set("dataset.build_ms", ms(per(st.total["dataset.build"])))
	set("op_ms", ms(p50(untraced)))
	set("analysiscache.hit_ratio", hits/float64(ops))
	set("dca.lanes_per_segment", lanesPerSegment(dca0, dca1))
	set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(untraced)))
	set("unattributed_ms", ms(meanOf(traced)-covered))
	set("trace.overhead_ms", ms(p50(traced)-p50(untraced)))
	logf("  pipeline: untraced p50=%.1fms over %d ops, traced p50=%.1fms over %d ops (workers=1)",
		ms(p50(untraced)), len(untraced), ms(p50(traced)), ops)
	st.log("pipeline", ops)
	return attempted, failed, nil
}
