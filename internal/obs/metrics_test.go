package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	// Re-registration returns the same instrument.
	if r.Counter("c_total", "again") != c {
		t.Fatal("re-registering a counter returned a different instrument")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", SizeBuckets)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bucket semantics: value lands in the first bucket with bound >= v.
	want := []int64{2, 2, 1, 1} // (-inf,1], (1,2], (2,5], (5,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Max != 10 {
		t.Fatalf("max = %g, want 10", s.Max)
	}
	if got, want := s.Sum, 0.5+1+1.5+2+3+10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	// 100 observations spread uniformly: 25 in each of the four buckets.
	for b := 0; b < 4; b++ {
		for i := 0; i < 25; i++ {
			h.Observe(float64(b*10) + 5)
		}
	}
	s := h.Snapshot()
	cases := []struct{ q, want float64 }{
		{0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40},
		{0.125, 5}, // halfway into the first bucket
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Overflow observations clamp to the last finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %g, want clamp to 1", got)
	}
	// Empty histogram reports 0.
	if got := newHistogram([]float64{1}).Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	c := &Counter{}
	g := &Gauge{}
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.003)
		c.Inc()
		g.Set(7)
	})
	if allocs != 0 {
		t.Fatalf("hot-path instruments allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestMetricsHammerConcurrent is the race-suite gate: many goroutines
// pounding every instrument type at once, with exact totals checked after.
func TestMetricsHammerConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", LatencyBuckets)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	var scr sync.WaitGroup
	for s := 0; s < 2; s++ {
		scr.Add(1)
		go func() {
			defer scr.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	scr.Wait()
	const total = workers * perWorker
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge = %g, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	s := h.Snapshot()
	sum := int64(0)
	for _, n := range s.Counts {
		sum += n
	}
	if sum != total {
		t.Fatalf("bucket counts sum to %d, want %d", sum, total)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("lumos_swaps_total", "bundle swaps").Add(3)
	r.Gauge("lumos_version", "serving version").Set(7)
	r.GaugeFunc("lumos_queue_depth", "queue depth", func() float64 { return 4 })
	h := r.Histogram(`lumos_query_seconds{endpoint="classify"}`, "query latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP lumos_swaps_total bundle swaps",
		"# TYPE lumos_swaps_total counter",
		"lumos_swaps_total 3",
		"# TYPE lumos_version gauge",
		"lumos_version 7",
		"lumos_queue_depth 4",
		"# TYPE lumos_query_seconds histogram",
		`lumos_query_seconds_bucket{endpoint="classify",le="0.001"} 1`,
		`lumos_query_seconds_bucket{endpoint="classify",le="0.01"} 2`,
		`lumos_query_seconds_bucket{endpoint="classify",le="+Inf"} 3`,
		`lumos_query_seconds_count{endpoint="classify"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}

	// Round-trip through the parser.
	parsed, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	if parsed["lumos_swaps_total"] != 3 {
		t.Errorf("parsed counter = %g, want 3", parsed["lumos_swaps_total"])
	}
	if parsed[`lumos_query_seconds_bucket{endpoint="classify",le="+Inf"}`] != 3 {
		t.Errorf("parsed +Inf bucket = %g, want 3",
			parsed[`lumos_query_seconds_bucket{endpoint="classify",le="+Inf"}`])
	}
	if parsed[`lumos_query_seconds_count{endpoint="classify"}`] != 3 {
		t.Errorf("parsed count = %g, want 3",
			parsed[`lumos_query_seconds_count{endpoint="classify"}`])
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	if _, err := ParsePrometheus("just_a_name_no_value"); err == nil {
		t.Fatal("want error for sample with no value")
	}
	if _, err := ParsePrometheus("name not_a_number"); err == nil {
		t.Fatal("want error for non-numeric value")
	}
	for _, line := range []string{
		"x 12abc",   // once parsed as 12: the value must be one whole float
		"x 1 2 3",   // more than a value and a timestamp
		"x 1 1.5",   // a timestamp is an integer
		`x{a="b} 1`, // unterminated label set
		`x{a="b"}1`, // no space before the value
		`{a="b"} 1`, // no name
	} {
		if m, err := ParsePrometheus(line); err == nil {
			t.Errorf("%q parsed as %v, want an error", line, m)
		}
	}
}

// TestParsePrometheusSampleForms reads what the text format allows on a
// sample line: the special values, an optional timestamp (once read as part
// of the name), and label values holding spaces, braces and escaped quotes.
func TestParsePrometheusSampleForms(t *testing.T) {
	m, err := ParsePrometheus(strings.Join([]string{
		"x 1 1700000000",
		`y{path="a b",code="200"} 2.5 -17`,
		`z{a="b \"} 1"} 3 2`,
		"up +Inf",
		"down -Inf",
		"gone NaN",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"x": 1, `y{path="a b",code="200"}`: 2.5, `z{a="b \"} 1"}`: 3,
		"up": math.Inf(1), "down": math.Inf(-1),
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if !math.IsNaN(m["gone"]) || len(m) != len(want)+1 {
		t.Errorf("parsed %v", m)
	}
}

// FuzzParsePrometheus: arbitrary text parses or errors without a panic, and
// a registry's own exposition parses back to the values written. The second
// input becomes a label value (the registry writes names verbatim, so one
// holding a quote, a backslash or a newline is the caller's error and is
// skipped) and the third a gauge's value.
func FuzzParsePrometheus(f *testing.F) {
	var seed strings.Builder
	if err := exposeFuzzRegistry(`a b`, 1.5).WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String(), "a b", 1.5)
	for _, text := range []string{"x 12abc", "x 1 1700000000", "x +Inf", "x NaN", `x{a="}"} 3`} {
		f.Add(text, "", math.Inf(-1))
	}
	f.Fuzz(func(t *testing.T, text, label string, v float64) {
		if m, err := ParsePrometheus(text); err == nil {
			for k := range m {
				if k == "" {
					t.Fatalf("%q parsed to an empty name", text)
				}
			}
		}
		if strings.ContainsAny(label, "\"\\\n") {
			return
		}
		var b strings.Builder
		if err := exposeFuzzRegistry(label, v).WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		m, err := ParsePrometheus(b.String())
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, b.String())
		}
		lb := `{l="` + label + `"}`
		for name, want := range map[string]float64{
			"fuzz_gauge" + lb: v, "fuzz_total" + lb: 3,
			"fuzz_seconds_count" + lb: 1, "fuzz_seconds_sum" + lb: 0.25,
			`fuzz_seconds_bucket{l="` + label + `",le="0.5"}`:  1,
			`fuzz_seconds_bucket{l="` + label + `",le="+Inf"}`: 1,
		} {
			got, ok := m[name]
			if !ok || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s = %v (present %v), want %v\n%s", name, got, ok, want, b.String())
			}
		}
	})
}

// exposeFuzzRegistry is a registry holding one instrument of each kind,
// every one labelled l=label.
func exposeFuzzRegistry(label string, v float64) *Registry {
	r := New()
	lb := `{l="` + label + `"}`
	r.Gauge("fuzz_gauge"+lb, "a gauge").Set(v)
	r.Counter("fuzz_total"+lb, "a counter").Add(3)
	r.Histogram("fuzz_seconds"+lb, "a histogram", []float64{0.5}).Observe(0.25)
	return r
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dual_total", "")
}
