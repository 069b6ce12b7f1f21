package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"lumos/internal/obs"
)

// span is one call from the benchmark's own code into a layer's public
// function: layer is the repo package, name the function.
type span struct {
	ID, Parent int // Parent is -1 for a root
	Track      int
	Layer      string
	Name       string
	Start, End float64 // seconds since the recorder was created
}

// recorder keeps the traced run's spans in memory. A nil *recorder is the
// untraced run: every method is a no-op and in() just calls fn, so the
// end-to-end numbers never pay for a span.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	open  map[int][]int // per-track stack of open span ids
}

// Span tracks: the harness goroutine, and the hot-swap publisher beside it.
const (
	trackMain = iota
	trackPublisher
)

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), open: map[int][]int{}}
}

// begin opens a span on the track; its parent is the track's innermost open
// span. Each track belongs to one goroutine.
func (r *recorder) begin(track int, layer, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if st := r.open[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Track: track, Layer: layer, Name: name, Start: now, End: now})
	r.open[track] = append(r.open[track], id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id]
	sp.End = now
	st := r.open[sp.Track]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			r.open[sp.Track] = st[:i]
			break
		}
	}
}

// in runs fn inside a span on the harness track.
func (r *recorder) in(layer, name string, fn func()) { r.on(trackMain, layer, name, fn) }

// on runs fn inside a span on the given track.
func (r *recorder) on(track int, layer, name string, fn func()) {
	id := r.begin(track, layer, name)
	fn()
	r.end(id)
}

// add records an already-timed span (both ends given as wall times) under
// the harness track's innermost open span — how rounds observed from inside
// sim.Run's callback are attributed to it.
func (r *recorder) add(layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if st := r.open[trackMain]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Track: trackMain, Layer: layer, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durationsMs lists the durations of every span of that layer and name.
func durationsMs(spans []span, layer, name string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Layer == layer && sp.Name == name {
			out = append(out, (sp.End-sp.Start)*1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time in seconds: its duration minus
// the durations of its direct children.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start
	}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

// layerSelfSeconds sums self time per layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, s := range selfTimes(spans) {
		out[spans[i].Layer] += s
	}
	return out
}

// writeTrace dumps the spans as Chrome trace JSON through obs.Tracer, so
// obs.ReadEventsFile and lumos-report read them back like any other trace.
func writeTrace(path, workload string, spans []span) error {
	tr := obs.NewVirtualTracer() // the caller supplies the seconds
	tr.SetTrackName(trackMain, "bench "+workload)
	tr.SetTrackName(trackPublisher, "publisher")
	for _, sp := range spans {
		tr.Span(sp.Track, sp.Layer, sp.Name, sp.Start, sp.End, map[string]any{
			"id": sp.ID, "parent": sp.Parent, "workload": workload,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.WriteFile(path)
}
