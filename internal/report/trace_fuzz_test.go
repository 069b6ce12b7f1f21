package report

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/obs"
	"lumos/internal/sim"
)

// farTrackJSONL is a 160-byte trace whose only device span sits on track
// 1 000 001. The analyzer once sized its device table by that id: 329 MB
// and a million rows for two lines.
const farTrackJSONL = `{"name":"round","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"round":0}}
{"name":"compute","ph":"X","ts":0,"dur":1,"pid":1,"tid":1000001,"args":{"round":0}}
`

// farTrackChrome is farTrackJSONL as a Chrome trace object, its track id
// at the top of int64.
const farTrackChrome = `{"traceEvents":[{"name":"round","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"round":0}},` +
	`{"name":"compute","ph":"X","ts":0,"dur":1,"pid":1,"tid":9223372036854775807,"args":{"round":0}}]}`

// analyzeAllocBytes reads a trace with read and analyzes it, returning the
// bytes both allocated together.
func analyzeAllocBytes(read func(io.Reader) ([]obs.Event, error), data []byte) (uint64, []obs.Event, *TraceAnalysis, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs, err := read(bytes.NewReader(data))
	var an *TraceAnalysis
	if err == nil {
		an, err = AnalyzeTrace(evs, 5)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, evs, an, err
}

// traceAllocBound is the most reading and analyzing an n-byte trace may
// allocate: the JSONL reader's 1 MiB line buffer and bookkeeping, plus a
// fixed multiple of the input (decoded events, spans and per-round
// tables). Nothing is sized by a value the input names.
func traceAllocBound(n int) uint64 { return 2<<20 + 1024*uint64(n) }

// TestAnalyzeTraceAllocBoundedByInput: a trace naming a far track id gets
// one device row, and reading plus analyzing it allocates about the JSONL
// reader's line buffer — not a table sized by the id.
func TestAnalyzeTraceAllocBoundedByInput(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, c := range []struct {
		name   string
		read   func(io.Reader) ([]obs.Event, error)
		data   string
		device int
	}{
		{"jsonl", obs.ReadJSONL, farTrackJSONL, 1_000_000},
		{"chrome", obs.ReadChrome, farTrackChrome, 1<<63 - 2},
	} {
		n, _, an, err := analyzeAllocBytes(c.read, []byte(c.data))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(an.Devices) != 1 || an.Devices[0].Device != c.device {
			t.Fatalf("%s: %d device rows, want one for device %d", c.name, len(an.Devices), c.device)
		}
		if bound := traceAllocBound(len(c.data)); n > bound {
			t.Fatalf("%s: a %d-byte trace allocated %d B, bound %d B", c.name, len(c.data), n, bound)
		}
	}
}

// shortSimTrace is the trace of a two-round simulation on a 10-device
// zipf fleet with churn and partial participation, so rounds with and
// without every device appear. It is kept small (~4 kB) so the fuzzer
// minimizes what it finds quickly.
func shortSimTrace(tb testing.TB) *obs.Tracer {
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
	tr := obs.NewVirtualTracer()
	s, err := sim.New(sys, sim.Scenario{
		Fleet: sim.FleetZipf, ZipfSkew: 2, Rounds: 2, Participation: 0.7, Churn: 0.2,
		EvalEvery: -1, Seed: seed, Tracer: tr,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(core.NewSupervisedObjective(split)); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// fuzzTraceReader checks a trace reader's invariant, with every decoded
// trace going through AnalyzeTrace: an error or a result, never a panic,
// and never an allocation past traceAllocBound. A result has at most one
// round per event and one device row per event, rows ascending.
func fuzzTraceReader(f *testing.F, read func(io.Reader) ([]obs.Event, error), write func(*obs.Tracer, io.Writer) error, far string) {
	var good bytes.Buffer
	if err := write(shortSimTrace(f), &good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(far))
	f.Add([]byte(strings.ReplaceAll(far, `"tid":0`, `"tid":-3`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, evs, an, err := analyzeAllocBytes(read, data)
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

func FuzzReadJSONL(f *testing.F) {
	fuzzTraceReader(f, obs.ReadJSONL, (*obs.Tracer).WriteJSONL, farTrackJSONL)
}

func FuzzReadChrome(f *testing.F) {
	fuzzTraceReader(f, obs.ReadChrome, (*obs.Tracer).WriteChrome, farTrackChrome)
}
