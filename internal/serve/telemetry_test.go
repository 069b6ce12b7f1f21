package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos/internal/obs"
)

// TestMetricsEndpointScrape is the /metrics acceptance test: a replica built
// with a registry serves parseable Prometheus text carrying the promised
// serving metrics — per-endpoint query latency, batch sizes, swap count, and
// the serving snapshot version.
func TestMetricsEndpointScrape(t *testing.T) {
	s := New(Options{BatchWait: 100 * time.Microsecond, Metrics: obs.New()})
	defer s.Close()
	s.Swap(fakeBundle(3, 16, 4))
	s.Swap(fakeBundle(4, 16, 4))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"nodes":[0,5]}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics -> %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	checks := map[string]float64{
		`lumos_serve_queries_total{endpoint="classify"}`: 1,
		"lumos_serve_swaps_total":                        2,
		"lumos_serve_snapshot_version":                   4,
		"lumos_serve_query_errors_total":                 0,
	}
	for name, want := range checks {
		got, ok := vals[name]
		if !ok {
			t.Fatalf("metric %s missing from scrape", name)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	// The latency and batch-size histograms exist with one observation each.
	if got := vals[`lumos_serve_query_seconds_count{endpoint="classify"}`]; got != 1 {
		t.Fatalf("classify latency count = %v, want 1", got)
	}
	if got := vals["lumos_serve_batch_size_count"]; got < 1 {
		t.Fatalf("batch size count = %v, want >= 1", got)
	}
}

// TestMetricsEndpointAbsentWithoutRegistry: no registry, no /metrics route —
// embedders that never opted in keep today's surface.
func TestMetricsEndpointAbsentWithoutRegistry(t *testing.T) {
	s := New(Options{BatchWait: 100 * time.Microsecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without a registry -> %s, want 404", resp.Status)
	}
}

// TestAccessLog checks the structured request log: one record per request
// with method, path, status, latency, and the serving version at answer
// time.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var recs []AccessRecord
	s := New(Options{
		BatchWait: 100 * time.Microsecond,
		AccessLog: func(r AccessRecord) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		},
	})
	defer s.Close()
	s.Swap(fakeBundle(2, 16, 4))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"nodes":[1]}`)); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 2 {
		t.Fatalf("logged %d records, want 2", len(recs))
	}
	classify, health := recs[0], recs[1]
	if classify.Method != "POST" || classify.Path != "/v1/classify" ||
		classify.Status != http.StatusOK || classify.Version != 2 {
		t.Fatalf("classify record: %+v", classify)
	}
	if classify.Latency <= 0 || classify.LatencyMS <= 0 {
		t.Fatalf("classify record has no latency: %+v", classify)
	}
	if health.Method != "GET" || health.Path != "/healthz" || health.Status != http.StatusOK {
		t.Fatalf("healthz record: %+v", health)
	}
}
