package serve

import (
	"time"

	"lumos/internal/obs"
)

// serveTelemetry binds the replica's instruments. The zero value (enabled
// == false) is fully disabled: instrument methods are nil-safe, and the
// enabled flag only gates the time.Now reads bracketing each query.
type serveTelemetry struct {
	enabled bool

	classifyLat   *obs.Histogram
	scoreLat      *obs.Histogram
	classifyTotal *obs.Counter
	scoreTotal    *obs.Counter
	queryErrors   *obs.Counter
	batchSize     *obs.Histogram
	swaps         *obs.Counter
	loadErrors    *obs.Counter
}

// initTelemetry registers the server's instruments on opt.Metrics and
// hooks the live gauges (queue depth, serving version, snapshot age) that
// are sampled at scrape time. Safe to call with Metrics nil.
func (s *Server) initTelemetry() {
	r := s.opt.Metrics
	if r == nil {
		return
	}
	s.tel = serveTelemetry{
		enabled: true,
		classifyLat: r.Histogram(`lumos_serve_query_seconds{endpoint="classify"}`,
			"End-to-end query latency through the batching path", obs.LatencyBuckets),
		scoreLat: r.Histogram(`lumos_serve_query_seconds{endpoint="score"}`,
			"End-to-end query latency through the batching path", obs.LatencyBuckets),
		classifyTotal: r.Counter(`lumos_serve_queries_total{endpoint="classify"}`,
			"Queries answered, by endpoint"),
		scoreTotal: r.Counter(`lumos_serve_queries_total{endpoint="score"}`,
			"Queries answered, by endpoint"),
		queryErrors: r.Counter("lumos_serve_query_errors_total",
			"Queries answered with an error"),
		batchSize: r.Histogram("lumos_serve_batch_size",
			"Queries answered per worker batch", obs.SizeBuckets),
		swaps: r.Counter("lumos_serve_swaps_total",
			"Successful bundle hot swaps"),
		loadErrors: r.Counter("lumos_serve_load_errors_total",
			"Watched snapshot files that failed to load (peek, read or bundle build); the served bundle stays"),
	}
	r.GaugeFunc("lumos_serve_queue_depth",
		"Queries waiting in the batching queue", func() float64 {
			return float64(len(s.reqs))
		})
	r.GaugeFunc("lumos_serve_snapshot_version",
		"Version of the snapshot being served (0 = none loaded)", func() float64 {
			if b := s.cur.Load(); b != nil {
				return float64(b.Version)
			}
			return 0
		})
	r.GaugeFunc("lumos_serve_snapshot_age_seconds",
		"Seconds since the served snapshot was created (0 = unknown)", func() float64 {
			b := s.cur.Load()
			if b == nil || b.Meta.CreatedUnix == 0 {
				return 0
			}
			return float64(time.Now().Unix() - b.Meta.CreatedUnix)
		})
}

// begin stamps a query's start; the zero time means telemetry is off.
func (t *serveTelemetry) begin() time.Time {
	if !t.enabled {
		return time.Time{}
	}
	return time.Now()
}

// query records one answered query on the endpoint's instruments.
func (t *serveTelemetry) query(kind reqKind, start time.Time, err error) {
	if !t.enabled {
		return
	}
	lat := time.Since(start).Seconds()
	if kind == kindClassify {
		t.classifyTotal.Inc()
		t.classifyLat.Observe(lat)
	} else {
		t.scoreTotal.Inc()
		t.scoreLat.Observe(lat)
	}
	if err != nil {
		t.queryErrors.Inc()
	}
}
