package server_test

// The metric-name audit (one test per surface): every counter, gauge
// and histogram the daemon exports must appear on /metrics under its
// frozen name with its frozen type, and the whole exposition must pass
// ValidatePrometheusText. A rename, a dropped bridge, or a type change
// breaks dashboards silently in production — here it breaks a test.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"cnnperf/internal/gpu"
	"cnnperf/internal/obs"
	"cnnperf/internal/server"
)

// serverFamilies is the frozen name->type table of every metric family
// a store-backed replica exports. Adding a metric means adding a row;
// renaming or retyping one means consciously editing a frozen row.
var serverFamilies = map[string]string{
	"cnnperfd_requests_total":           "counter",
	"cnnperfd_request_duration_seconds": "histogram",
	"cnnperfd_in_flight_requests":       "gauge",
	"cnnperfd_panics_total":             "counter",
	"cnnperfd_rejected_total":           "counter",
	"cnnperfd_slow_requests_total":      "counter",
	"cnnperfd_uptime_seconds":           "gauge",

	"cnnperfd_cache_hits_total":      "counter",
	"cnnperfd_cache_misses_total":    "counter",
	"cnnperfd_cache_waits_total":     "counter",
	"cnnperfd_cache_evictions_total": "counter",
	"cnnperfd_cache_disk_hits_total": "counter",
	"cnnperfd_cache_entries":         "gauge",

	"cnnperfd_pool_workers":               "gauge",
	"cnnperfd_pool_active_workers":        "gauge",
	"cnnperfd_pool_tasks_completed_total": "counter",

	"cnnperfd_absint_iterations": "histogram",

	"cnnperfd_store_hits_total":          "counter",
	"cnnperfd_store_misses_total":        "counter",
	"cnnperfd_store_puts_total":          "counter",
	"cnnperfd_store_corrupt_total":       "counter",
	"cnnperfd_store_decode_errors_total": "counter",

	"cnnperfd_fr_requests_total":         "counter",
	"cnnperfd_fr_retained_slow_total":    "counter",
	"cnnperfd_fr_retained_error_total":   "counter",
	"cnnperfd_fr_sampled_total":          "counter",
	"cnnperfd_fr_evictions_total":        "counter",
	"cnnperfd_fr_recycled_tracers_total": "counter",
	"cnnperfd_fr_retained_traces":        "gauge",
	"cnnperfd_fr_retained_spans":         "gauge",
}

func TestMetricsNamesAndTypes(t *testing.T) {
	_, ts := newStoreTestServer(t, server.Config{StoreDir: t.TempDir()})
	// Touch the surfaces so bridged counters have live sources behind
	// them (names must be present regardless of traffic).
	gpus := gpu.TrainingGPUs
	code, body := postJSON(t, ts.URL+"/v1/predict",
		fmt.Sprintf(`{"model":"alexnet","gpus":[%q]}`, gpus[0]))
	if code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, body)
	}

	text := scrapePrometheus(t, ts.URL, "", "")
	auditFamilies(t, text, serverFamilies)
}

// auditFamilies checks one exposition against a frozen family table:
// validity of the text as a whole, presence and exact TYPE of every
// family, and no unknown cnnperfd families sneaking in unaudited.
func auditFamilies(t *testing.T, text string, families map[string]string) {
	t.Helper()
	if n, err := obs.ValidatePrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	} else if n == 0 {
		t.Fatal("exposition has no samples")
	}
	typeOf := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 4 {
			typeOf[fields[2]] = fields[3]
		}
	}
	for family, wantType := range families {
		gotType, ok := typeOf[family]
		if !ok {
			t.Errorf("family %s missing from /metrics", family)
			continue
		}
		if gotType != wantType {
			t.Errorf("family %s is a %s, frozen type is %s", family, gotType, wantType)
		}
	}
	for family, gotType := range typeOf {
		if _, audited := families[family]; !audited {
			t.Errorf("unaudited family %s (%s) on /metrics: add it to the frozen table", family, gotType)
		}
	}
}

// scrapePrometheus fetches baseURL+"/metrics"+query, with an Accept
// header when accept is non-empty, and checks the one /metrics
// contract: status 200, the Prometheus content type, and an exposition
// that passes ValidatePrometheusText with at least one sample. Stock
// scrapers send neither a query nor an Accept header.
func scrapePrometheus(t *testing.T, baseURL, query, accept string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, raw := doRequest(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("scrape content type %q, want %q", got, obs.PrometheusContentType)
	}
	if n, err := obs.ValidatePrometheusText(bytes.NewReader(raw)); err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, raw)
	} else if n == 0 {
		t.Fatal("Prometheus exposition has no samples")
	}
	return string(raw)
}

// promValue returns the sample value of one series, written exactly as
// the exposition renders it (family name plus label set); the test
// fails if the series is absent.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, v)
			}
			return f
		}
	}
	t.Fatalf("series %s missing from /metrics", series)
	return 0
}

// TestMetricsStoreFamilies checks the artifact-store bridge: a
// store-backed server exports live cnnperfd_store_* counters (puts
// move after a predict), while a memory-only server exports no
// cnnperfd_store_* family at all.
func TestMetricsStoreFamilies(t *testing.T) {
	_, ts := newStoreTestServer(t, server.Config{StoreDir: t.TempDir()})
	gpus := gpu.TrainingGPUs
	req := fmt.Sprintf(`{"model":"alexnet","gpus":[%q]}`, gpus[0])
	if code, body := postJSON(t, ts.URL+"/v1/predict", req); code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, body)
	}
	text := scrapePrometheus(t, ts.URL, "", "")
	for _, series := range []string{
		"cnnperfd_cache_disk_hits_total", "cnnperfd_store_hits_total", "cnnperfd_store_misses_total",
		"cnnperfd_store_corrupt_total", "cnnperfd_store_decode_errors_total",
	} {
		promValue(t, text, series)
	}
	if puts := promValue(t, text, "cnnperfd_store_puts_total"); puts == 0 {
		t.Error("cnnperfd_store_puts_total is 0 after a store-backed predict; the bridge reads the wrong source")
	}

	_, tsMem := newTestServer(t, server.Config{})
	if memText := scrapePrometheus(t, tsMem.URL, "", ""); strings.Contains(memText, "cnnperfd_store_") {
		t.Error("memory-only server exports cnnperfd_store_* families")
	}
}
