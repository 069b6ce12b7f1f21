package main

import (
	"math"
	"path/filepath"
	"testing"

	"lumos/internal/obs"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	// lap [0,10] > NewSystem [1,4] > Balance [2,3]; lap > Step [5,9].
	spans := []span{
		{ID: 0, Parent: -1, Layer: "harness", Name: "lap", Start: 0, End: 10},
		{ID: 1, Parent: 0, Layer: "core", Name: "NewSystem", Start: 1, End: 4},
		{ID: 2, Parent: 1, Layer: "balance", Name: "Balance", Start: 2, End: 3},
		{ID: 3, Parent: 0, Layer: "core", Name: "Step", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	for i, want := range []float64{3, 2, 1, 4} { // 10-3-4, 3-1, 1, 4
		if math.Abs(self[i]-want) > 1e-12 {
			t.Errorf("span %d self time %v, want %v", i, self[i], want)
		}
	}
	byLayer := layerSelfSeconds(spans)
	if byLayer["core"] != 6 || byLayer["harness"] != 3 || byLayer["balance"] != 1 {
		t.Errorf("per-layer self time %v, want core 6, harness 3, balance 1", byLayer)
	}
	total := 0.0
	for _, s := range self {
		total += s
	}
	if math.Abs(total-10) > 1e-12 {
		t.Errorf("self times sum to %v, want the root's 10", total)
	}
}

func TestRecorderNestsSpansPerTrack(t *testing.T) {
	rec := newRecorder("w")
	rec.in("harness", "lap", func() {
		rec.in("core", "NewSystem", func() {})
		other := rec.begin(trackPublisher, "snapshot", "Capture") // another goroutine's track
		rec.in("core", "Step", func() {})
		rec.end(other)
	})
	rec.in("harness", "lap", func() {})
	spans := rec.snapshot()
	if len(spans) != 5 {
		t.Fatalf("%d spans, want 5", len(spans))
	}
	for i, want := range []int{-1, 0, -1, 0, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s) has parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	if got := durationsMs(spans, "harness", "lap"); len(got) != 2 {
		t.Errorf("%d lap durations, want 2", len(got))
	}
}

func TestNilRecorderRunsTheFunctionAndRecordsNothing(t *testing.T) {
	var rec *recorder
	ran := false
	rec.in("core", "Step", func() { ran = true })
	rec.end(rec.begin(trackMain, "core", "Step"))
	if !ran || rec.snapshot() != nil {
		t.Errorf("nil recorder: ran=%v spans=%v", ran, rec.snapshot())
	}
}

func TestTraceReadsBackThroughObs(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "harness", Name: "lap", Start: 0, End: 2},
		{ID: 1, Parent: 0, Layer: "core", Name: "NewSystem", Start: 0.5, End: 1.5},
	}
	path := filepath.Join(t.TempDir(), "out", "w.trace.json")
	if err := writeTrace(path, "w", spans); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		found++
		if e.Args["workload"] != "w" {
			t.Errorf("event %s carries workload %v", e.Name, e.Args["workload"])
		}
		if e.Name == "NewSystem" && (e.Cat != "core" || e.Dur != 1e6 || e.Args["parent"] != float64(0) && e.Args["parent"] != 0) {
			t.Errorf("NewSystem event %+v", e)
		}
	}
	if found != len(spans) {
		t.Errorf("%d spans read back, want %d", found, len(spans))
	}
}
