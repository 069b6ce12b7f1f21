package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one trace record in Chrome trace-event form (the JSON shape
// Perfetto and chrome://tracing load directly). TS and Dur are in
// microseconds; Ph is the phase letter ("X" complete span, "i" instant,
// "M" metadata).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer accumulates spans and instants and writes them out as Chrome
// trace-event JSON. A nil *Tracer is valid and every method on it is a
// no-op, so instrumented code needs no enablement branches.
//
// Two clock modes exist. A wall tracer (NewTracer) anchors Now() at its
// creation; callers bracket work with t0 := tr.Now() ... tr.Span(...,
// t0, tr.Now(), ...). A virtual tracer (NewVirtualTracer) has no clock
// of its own — the caller supplies simulated seconds directly, which is
// what the discrete-event simulator does. Never mix the two in one
// tracer: the timestamps would be incomparable.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	start   time.Time
	virtual bool
}

// NewTracer returns a wall-clock tracer; Now() reads seconds elapsed
// since this call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// NewVirtualTracer returns a tracer whose timestamps are supplied by
// the caller (simulated seconds). Now() always returns 0.
func NewVirtualTracer() *Tracer {
	return &Tracer{virtual: true}
}

// Now returns seconds since the tracer was created (0 for nil or
// virtual tracers). Use it to bracket spans on wall tracers.
func (t *Tracer) Now() float64 {
	if t == nil || t.virtual {
		return 0
	}
	return time.Since(t.start).Seconds()
}

// Span records a completed span on track tid covering [start, end],
// both in seconds (wall seconds since tracer creation, or virtual
// seconds). args may be nil.
func (t *Tracer) Span(tid int, cat, name string, start, end float64, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.append(Event{
		Name: name, Cat: cat, Ph: "X",
		TS: start * 1e6, Dur: (end - start) * 1e6,
		PID: 1, TID: tid, Args: args,
	})
}

// Instant records a zero-duration marker on track tid at time ts
// (seconds). args may be nil.
func (t *Tracer) Instant(tid int, cat, name string, ts float64, args map[string]any) {
	if t == nil {
		return
	}
	t.append(Event{
		Name: name, Cat: cat, Ph: "i",
		TS: ts * 1e6, PID: 1, TID: tid, S: "t", Args: args,
	})
}

// SetTrackName labels track tid in the viewer (a thread_name metadata
// event). Call once per track, before or after its events — viewers
// don't care about ordering of metadata.
func (t *Tracer) SetTrackName(tid int, name string) {
	if t == nil {
		return
	}
	t.append(Event{
		Name: "thread_name", Ph: "M",
		PID: 1, TID: tid, Args: map[string]any{"name": name},
	})
}

func (t *Tracer) append(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in append order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteChrome writes the events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable in Perfetto or chrome://tracing.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	for i, e := range t.Events() {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChrome parses a Chrome trace-event object ({"traceEvents":[...]})
// back into its events — the inverse of WriteChrome, so recorded timelines
// can be analyzed offline (internal/report).
func ReadChrome(r io.Reader) ([]Event, error) {
	var chrome struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&chrome); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if chrome.TraceEvents == nil {
		return nil, fmt.Errorf("trace: object carries no traceEvents array (not a Chrome trace?)")
	}
	return chrome.TraceEvents, nil
}

// ReadEventsFile loads a trace file written by WriteFile. The file must
// hold Chrome trace-event JSON, whatever its extension.
func ReadEventsFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	evs, err := ReadChrome(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return evs, nil
}

// WriteFile writes the trace to path as Chrome trace-event JSON, whatever
// the extension.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	err = t.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return nil
}
