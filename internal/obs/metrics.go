// Package obs is the runtime telemetry layer: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms with a
// Prometheus text exposition) and a structured event tracer writing Chrome
// trace-event JSON (viewable in Perfetto).
//
// Two design rules shape the package. First, disabled telemetry is free:
// every instrument method is safe on a nil receiver and returns
// immediately, and a nil *Registry hands out nil instruments, so code
// instruments unconditionally while the telemetry-free default stays bit-
// and allocation-identical to uninstrumented code. Second, the enabled hot
// path never allocates: counters, gauges, and histograms update through
// atomics only, so they are safe under the race detector and cheap enough
// to sit inside the serving batch loop and the training epoch loop.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for Prometheus semantics; this is not
// enforced). Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta atomically. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric: observations land in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket, and the exact sum, count, and max ride along. Observe is
// allocation-free and atomic, so concurrent writers need no locking.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// newHistogram copies and sorts the bounds. At least one bound is required
// (use DefBuckets or a purpose-built slice).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting: per-bucket counts (last entry is the +Inf overflow), total
// count, sum, and max observed.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	Max    float64
}

// Snapshot copies the histogram's state. A zero snapshot on nil receivers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	if s.Count > 0 {
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Default bucket layouts. Bounds are inclusive upper edges.
var (
	// LatencyBuckets spans 100µs to 10s — request latencies in seconds.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// DurationBuckets spans 1ms to ~2min — step/epoch durations in seconds.
	DurationBuckets = []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
		0.5, 1, 2.5, 5, 10, 30, 60, 120,
	}
	// SizeBuckets is powers of two for batch sizes and queue depths.
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// Registry holds named instruments and renders them as Prometheus text.
// Instrument names may carry a static label set in the standard syntax,
// e.g. `lumos_serve_query_seconds{endpoint="classify"}`; the base name
// (before '{') groups the HELP/TYPE header. The zero registry is not
// usable — call New; a nil *Registry hands out nil (disabled) instruments
// from every constructor, so callers never branch on enablement.
type Registry struct {
	mu    sync.Mutex
	order []string
	inst  map[string]any
	help  map[string]string
	kind  map[string]string // base name -> prometheus type
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		inst: make(map[string]any),
		help: make(map[string]string),
		kind: make(map[string]string),
	}
}

// register returns the existing instrument under name, or stores and
// returns the one built by mk. Mismatched re-registration (same name,
// different kind) panics: it is a programming error that would silently
// cross metric streams.
func (r *Registry) register(name, help, kind string, mk func() any) any {
	base := baseName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.kind[base]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", base, kind, prev))
	}
	if in, ok := r.inst[name]; ok {
		return in
	}
	in := mk()
	r.inst[name] = in
	r.order = append(r.order, name)
	r.kind[base] = kind
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
	return in
}

// Counter returns the counter registered under name, creating it if
// needed. Nil registry -> nil (disabled) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it if needed.
// Nil registry -> nil (disabled) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// gaugeFunc wraps a callback sampled at scrape time.
type gaugeFunc struct{ fn func() float64 }

// GaugeFunc registers a gauge whose value is computed by fn at every
// scrape — for values that live elsewhere (queue lengths, snapshot age).
// fn must be safe to call concurrently. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", func() any { return &gaugeFunc{fn} })
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it with the given bucket upper bounds if needed. Nil registry ->
// nil (disabled) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, "histogram", func() any { return newHistogram(bounds) }).(*Histogram)
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), in registration order, with one
// HELP/TYPE header per base name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	inst := make(map[string]any, len(names))
	for _, n := range names {
		inst[n] = r.inst[n]
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	kind := make(map[string]string, len(r.kind))
	for k, v := range r.kind {
		kind[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool)
	for _, name := range names {
		base := baseName(name)
		if !seen[base] {
			seen[base] = true
			if h := help[base]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", base, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind[base])
		}
		labels := labelPart(name)
		switch in := inst[name].(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %d\n", name, in.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(in.Value()))
		case *gaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(in.fn()))
		case *Histogram:
			s := in.Snapshot()
			cum := int64(0)
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", base, mergeLabels(labels, fmt.Sprintf("le=%q", formatFloat(bound))), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, mergeLabels(labels, `le="+Inf"`), s.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", base, wrapLabels(labels), formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", base, wrapLabels(labels), s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ParsePrometheus reads Prometheus text exposition into a flat map of
// sample name (including any label set, exactly as exposed) to value —
// enough for scrape tests and for folding a /metrics snapshot into a
// benchmark report. Comment and blank lines are skipped. A sample line is
// a name, an optional {label set} (label values may hold spaces and
// escaped quotes), a value that strconv.ParseFloat accepts in full (so
// also +Inf, -Inf and NaN), and an optional integer timestamp, which is
// dropped; anything else is an error.
func ParsePrometheus(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := splitSampleName(line)
		if !ok {
			return nil, fmt.Errorf("obs: malformed sample on line %d: %q", ln+1, line)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("obs: malformed sample on line %d: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value on line %d: %q: %v", ln+1, line, err)
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: bad timestamp on line %d: %q: %v", ln+1, line, err)
			}
		}
		out[name] = v
	}
	return out, nil
}

// splitSampleName splits a trimmed sample line into its name with any
// label set, and the rest. The name runs to the first space or '{'; a
// label set runs to the '}' that closes it, skipping braces and escaped
// quotes inside quoted label values. ok is false when the name is empty,
// a label set is unterminated, or nothing separates the name from the
// rest.
func splitSampleName(line string) (name, rest string, ok bool) {
	i := strings.IndexAny(line, " \t{")
	if i <= 0 {
		return "", "", false
	}
	if line[i] == '{' {
		quoted := false
		for i++; i < len(line); i++ {
			switch c := line[i]; {
			case quoted && c == '\\':
				i++ // the escaped character
			case c == '"':
				quoted = !quoted
			case !quoted && c == '}':
				i++
				if i < len(line) && line[i] != ' ' && line[i] != '\t' {
					return "", "", false
				}
				return line[:i], line[i:], true
			}
		}
		return "", "", false
	}
	return line[:i], line[i:], true
}

// baseName strips a trailing {label} set from an instrument name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPart returns the inner label list of a name ("" when unlabeled).
func labelPart(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// mergeLabels joins a static label list with an extra label into {...}.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// wrapLabels re-wraps a label list in braces ("" stays "").
func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat renders floats compactly ("0.005", not "5e-03"), matching
// what Prometheus parsers and humans both read.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
