package report

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/obs"
	"lumos/internal/sim"
)

// farTrack is a Chrome trace whose only device span sits on track tid.
// With tid 1 000 001 it is the 160-byte trace for which the analyzer once
// sized its device table by that id: 329 MB and a million rows for two
// events.
func farTrack(tid string) string {
	return `{"traceEvents":[{"name":"round","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"round":0}},` +
		`{"name":"compute","ph":"X","ts":0,"dur":1,"pid":1,"tid":` + tid + `,"args":{"round":0}}]}`
}

// analyzeAllocBytes reads a Chrome trace and analyzes it, returning the
// bytes both allocated together.
func analyzeAllocBytes(data []byte) (uint64, []obs.Event, *TraceAnalysis, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs, err := obs.ReadChrome(bytes.NewReader(data))
	var an *TraceAnalysis
	if err == nil {
		an, err = AnalyzeTrace(evs, 5)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, evs, an, err
}

// traceAllocBound is the most reading and analyzing an n-byte trace may
// allocate: 2 MiB of fixed bookkeeping plus a fixed multiple of the input
// (decoded events, spans and per-round tables). Nothing is sized by a value
// the input names.
func traceAllocBound(n int) uint64 { return 2<<20 + 1024*uint64(n) }

// TestAnalyzeTraceAllocBoundedByInput: a trace naming a far track id gets
// one device row, and reading plus analyzing it stays within
// traceAllocBound — no table is sized by the id.
func TestAnalyzeTraceAllocBoundedByInput(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, c := range []struct {
		tid    string
		device int
	}{
		{"1000001", 1_000_000},
		{"9223372036854775807", 1<<63 - 2},
	} {
		data := farTrack(c.tid)
		n, _, an, err := analyzeAllocBytes([]byte(data))
		if err != nil {
			t.Fatalf("tid %s: %v", c.tid, err)
		}
		if len(an.Devices) != 1 || an.Devices[0].Device != c.device {
			t.Fatalf("tid %s: %d device rows, want one for device %d", c.tid, len(an.Devices), c.device)
		}
		if bound := traceAllocBound(len(data)); n > bound {
			t.Fatalf("tid %s: a %d-byte trace allocated %d B, bound %d B", c.tid, len(data), n, bound)
		}
	}
}

// shortSimTrace is the trace of a two-round simulation on a 10-device
// zipf fleet with churn and partial participation, so rounds with and
// without every device appear. It is kept small (~4 kB) so the fuzzer
// minimizes what it finds quickly.
func shortSimTrace(tb testing.TB) *obs.Tracer {
	tr := obs.NewVirtualTracer()
	shortSim(tb, tr, nil)
	return tr
}

// shortSim runs shortSimTrace's simulation, recording into tr and reg
// (either may be nil).
func shortSim(tb testing.TB, tr *obs.Tracer, reg *obs.Registry) *sim.Result {
	const seed = 5
	g, err := graph.Generate(graph.GenConfig{
		Name: "sim", N: 10, M: 24, Classes: 2, FeatureDim: 4,
		PowerLaw: 2.2, Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystem(g, g, core.Config{
		Task: core.Supervised, MCMCIterations: 5, Shards: g.N,
		Sched: core.SchedSync, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sim.New(sys, sim.Scenario{
		Fleet: sim.FleetZipf, ZipfSkew: 2, Rounds: 2, Participation: 0.7, Churn: 0.2,
		EvalEvery: -1, Seed: seed, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// FuzzReadChrome: ReadChrome followed by AnalyzeTrace returns an error or a
// result, never panics, and never allocates past traceAllocBound. A result
// has at most one round per event and one device row per event, rows
// ascending.
func FuzzReadChrome(f *testing.F) {
	var good bytes.Buffer
	if err := shortSimTrace(f).WriteChrome(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	far := farTrack("9223372036854775807")
	f.Add([]byte(far))
	f.Add([]byte(strings.ReplaceAll(far, `"tid":0`, `"tid":-3`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, evs, an, err := analyzeAllocBytes(data)
		if !testing.Short() && n > traceAllocBound(len(data)) {
			t.Fatalf("%d-byte trace allocated %d B, bound %d (err %v)", len(data), n, traceAllocBound(len(data)), err)
		}
		if err != nil {
			return
		}
		if len(an.Rounds) > len(evs) || len(an.Devices) > len(evs) {
			t.Fatalf("%d events analyzed into %d rounds and %d device rows", len(evs), len(an.Rounds), len(an.Devices))
		}
		for i := 1; i < len(an.Devices); i++ {
			if an.Devices[i].Device <= an.Devices[i-1].Device {
				t.Fatalf("device rows out of order: %+v", an.Devices)
			}
		}
	})
}
