// Command cnnperfd is the prediction serving daemon: a long-lived
// HTTP/JSON front end over the performance-estimation pipeline that
// amortizes analysis-cache and compiled-DCA work across requests.
//
// Endpoints:
//
//	POST /v1/predict  {"model":"vgg16","gpus":["gtx1080ti","v100s"]}
//	                  or {"ptx":"...","trainable_params":N,"gpus":[...]}
//	POST /v1/lint     {"model":"vgg16"} or {"ptx":"..."}
//	GET  /healthz     liveness probe
//	GET  /metrics     Prometheus text exposition
//	GET  /debug/pprof/*  live profiling (only with -pprof)
//	GET  /debug/flightrecorder  retained traces as Chrome trace JSON
//	                  (always on; disable with -no-flight-recorder)
//
// Logs are structured JSON lines on stderr, one per request, carrying
// the request id echoed on X-Request-ID. SIGINT/SIGTERM triggers a
// graceful shutdown: in-flight requests complete, late arrivals get
// 503.
//
// Gateway mode (-gateway "http://host:port,...") turns the process
// into the sharded router instead of a replica: /v1/predict and
// /v1/lint are consistent-hashed by content key across the listed
// backend replicas, with /healthz probing (ejection + re-admission),
// bounded retries on connection failure, and cnnperfd_gw_* Prometheus
// metrics on /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cnnperf/internal/gateway"
	"cnnperf/internal/obs"
	"cnnperf/internal/profiler"
	"cnnperf/internal/server"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 0, "analysis cache capacity in entries (0 = unbounded)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn or error")
	slowReq := flag.Duration("slow-request", 10*time.Second, "log completed requests slower than this at warn level (0 disables)")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (timeout-exempt)")
	storeDir := flag.String("store", "", "persistent artifact store directory (write-through disk tier under the cache)")
	snapshot := flag.String("snapshot", "", "warm-boot from a `cnnperf store export` snapshot file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the daemon to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile of the daemon to this file")
	gatewayBackends := flag.String("gateway", "", "run as the sharded gateway over these comma-separated backend URLs instead of a replica")
	gwProbeInterval := flag.Duration("gw-probe-interval", time.Second, "gateway health-check period")
	gwFailThreshold := flag.Int("gw-fail-threshold", 3, "consecutive probe failures that eject a backend")
	gwReviveThreshold := flag.Int("gw-revive-threshold", 2, "consecutive probe successes that re-admit a backend")
	gwRetries := flag.Int("gw-retries", 3, "maximum proxy attempts per request (including the first)")
	gwRetryBackoff := flag.Duration("gw-retry-backoff", 10*time.Millisecond, "backoff before the first retry (doubles per retry)")
	gwVNodes := flag.Int("gw-vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 128)")
	noFlightRec := flag.Bool("no-flight-recorder", false, "disable the always-on flight recorder (and GET /debug/flightrecorder)")
	frCapacity := flag.Int("fr-capacity", 64, "flight recorder: retained slow/error traces")
	frSample := flag.Int("fr-sample", 64, "flight recorder: reservoir-sampled ordinary traces (negative disables sampling)")
	frSlow := flag.Duration("fr-slow", 250*time.Millisecond, "flight recorder: requests at least this slow are always retained")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace file per retained flight-recorder trace to this directory on shutdown")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cnnperfd: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	frCfg := obs.FlightRecorderConfig{
		Capacity:       *frCapacity,
		SampleCapacity: *frSample,
		SlowThreshold:  *frSlow,
	}

	if *gatewayBackends != "" {
		runGateway(logger, gateway.Config{
			Addr:                  *addr,
			Backends:              splitBackends(*gatewayBackends),
			VNodes:                *gwVNodes,
			ProbeInterval:         *gwProbeInterval,
			FailThreshold:         *gwFailThreshold,
			ReviveThreshold:       *gwReviveThreshold,
			RetryBudget:           *gwRetries,
			RetryBackoff:          *gwRetryBackoff,
			Timeout:               *timeout,
			MaxBodyBytes:          *maxBody,
			SlowRequest:           *slowReq,
			Logger:                logger,
			DisableFlightRecorder: *noFlightRec,
			FlightRecorder:        frCfg,
		}, *traceDir)
		return
	}

	stopProfiles, err := profiler.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		logger.Error("startup failed", obs.String("err", err.Error()))
		os.Exit(1)
	}

	srv, err := server.NewWithStore(server.Config{
		Addr:         *addr,
		Workers:      *workers,
		CacheSize:    *cacheSize,
		Timeout:      *timeout,
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		SlowRequest:  *slowReq,
		EnablePprof:  *enablePprof,
		StoreDir:     *storeDir,
		SnapshotFile: *snapshot,

		DisableFlightRecorder: *noFlightRec,
		FlightRecorder:        frCfg,
	})
	if err != nil {
		logger.Error("startup failed", obs.String("err", err.Error()))
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("listening",
		obs.String("addr", *addr), obs.Int("workers", *workers),
		obs.Int("cache_size", *cacheSize), obs.Duration("timeout", *timeout),
		obs.String("log_level", level.String()), obs.Bool("pprof", *enablePprof),
		obs.String("store", *storeDir), obs.String("snapshot", *snapshot))
	err = srv.ListenAndServe(ctx)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	dumpTraces(logger, srv.FlightRecorder(), *traceDir)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", obs.String("err", err.Error()))
		os.Exit(1)
	}
	logger.Info("drained and stopped", obs.String("cache_stats", srv.CacheStats().String()))
}

// dumpTraces writes the flight recorder's retained traces as Chrome
// trace files, one per trace, when -trace-dir is set.
func dumpTraces(logger *obs.Logger, fr *obs.FlightRecorder, dir string) {
	if dir == "" || fr == nil {
		return
	}
	n, err := fr.WriteDir(dir)
	if err != nil {
		logger.Error("trace dump failed", obs.String("dir", dir), obs.String("err", err.Error()))
		return
	}
	logger.Info("traces written", obs.String("dir", dir), obs.Int("traces", n))
}

// runGateway boots the sharded router mode and serves until
// SIGINT/SIGTERM, then drains (in-flight proxies finish, late
// arrivals get 503).
func runGateway(logger *obs.Logger, cfg gateway.Config, traceDir string) {
	gw, err := gateway.New(cfg)
	if err != nil {
		logger.Error("gateway startup failed", obs.String("err", err.Error()))
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("gateway listening",
		obs.String("addr", cfg.Addr),
		obs.String("backends", strings.Join(cfg.Backends, ",")),
		obs.Int("retries", cfg.RetryBudget))
	err = gw.ListenAndServe(ctx)
	dumpTraces(logger, gw.FlightRecorder(), traceDir)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("gateway failed", obs.String("err", err.Error()))
		os.Exit(1)
	}
	logger.Info("gateway drained and stopped")
}

func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
