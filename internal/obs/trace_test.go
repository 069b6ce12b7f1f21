package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Span(1, "cat", "name", 0, 1, nil)
	tr.Instant(1, "cat", "name", 0, nil)
	tr.SetTrackName(1, "track")
	if tr.Now() != 0 || tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must read empty")
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer Chrome output not JSON: %v", err)
	}
}

// TestWriteChromeStructure validates the trace-event JSON shape Perfetto
// expects: a traceEvents array whose entries carry name/ph/ts/pid/tid,
// with "X" spans carrying dur and "M" metadata naming tracks.
func TestWriteChromeStructure(t *testing.T) {
	tr := NewVirtualTracer()
	tr.SetTrackName(3, "device 3")
	tr.Span(3, "device", "compute", 1.5, 2.25, map[string]any{"round": 7})
	tr.Instant(0, "round", "commit", 2.5, nil)

	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome output not JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	meta, span, inst := doc.TraceEvents[0], doc.TraceEvents[1], doc.TraceEvents[2]
	if meta.Ph != "M" || meta.Name != "thread_name" || meta.Args["name"] != "device 3" {
		t.Fatalf("metadata event wrong: %+v", meta)
	}
	if span.Ph != "X" || span.Name != "compute" || span.TID != 3 {
		t.Fatalf("span event wrong: %+v", span)
	}
	if span.TS != 1.5e6 || span.Dur != 0.75e6 {
		t.Fatalf("span timing = ts %g dur %g, want µs 1.5e6 / 0.75e6", span.TS, span.Dur)
	}
	if span.Args["round"] != float64(7) {
		t.Fatalf("span args wrong: %+v", span.Args)
	}
	if inst.Ph != "i" || inst.TS != 2.5e6 {
		t.Fatalf("instant event wrong: %+v", inst)
	}
}

func TestSpanClampNegativeDuration(t *testing.T) {
	tr := NewVirtualTracer()
	tr.Span(0, "c", "n", 5, 4, nil) // end < start clamps to zero-length
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Dur != 0 || ev[0].TS != 5e6 {
		t.Fatalf("clamped span wrong: %+v", ev)
	}
}

// TestWriteFileWritesChromeWhateverTheExtension: a .jsonl path gets Chrome
// trace-event JSON too; there is one trace format.
func TestWriteFileWritesChromeWhateverTheExtension(t *testing.T) {
	dir := t.TempDir()
	tr := NewVirtualTracer()
	tr.Span(0, "c", "n", 0, 1, nil)
	for _, name := range []string{"out.trace.json", "out.jsonl"} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), `{"traceEvents":[`) {
			t.Fatalf("%s is not Chrome format: %q", name, b)
		}
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	build := func() []byte {
		tr := NewVirtualTracer()
		tr.SetTrackName(0, "server")
		for i := 0; i < 5; i++ {
			tr.Span(i, "device", "compute", float64(i), float64(i)+0.5,
				map[string]any{"round": i, "device": i})
		}
		var b bytes.Buffer
		if err := tr.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical event sequences must serialize to identical bytes")
	}
}

// TestReadEventsFileRoundTrip: events written with WriteFile load back
// identically through ReadEventsFile, whatever the extension. Args use float64
// values because that is what encoding/json decodes numbers to.
func TestReadEventsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := NewVirtualTracer()
	tr.SetTrackName(0, "aggregator")
	tr.Span(1, "device", "compute", 0, 1.5, map[string]any{"round": 2.0})
	tr.Span(0, "agg", "broadcast", 1.5, 2.0, map[string]any{"round": 2.0})
	tr.Instant(0, "round", "commit", 2.0, map[string]any{"round": 2.0})
	want := tr.Events()

	for _, name := range []string{"out.trace.json", "out.jsonl"} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEventsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip mismatch:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestReadChromeRejectsNonTrace: an arbitrary JSON object is not a trace,
// and neither is a JSONL event stream.
func TestReadChromeRejectsNonTrace(t *testing.T) {
	if _, err := ReadChrome(strings.NewReader(`{"foo": 1}`)); err == nil {
		t.Fatal("non-trace object parsed")
	}
	if _, err := ReadChrome(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage parsed")
	}
	jsonl := `{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}` + "\n" + `{"name":"b","ph":"X","ts":1,"pid":1,"tid":1}` + "\n"
	if _, err := ReadChrome(strings.NewReader(jsonl)); err == nil {
		t.Fatal("JSONL event stream parsed")
	}
}
