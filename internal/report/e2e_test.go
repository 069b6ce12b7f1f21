package report

import (
	"math"
	"math/rand"
	"testing"

	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/obs"
	"lumos/internal/sim"
)

// TestE2EStragglerBlameMatchesSlowestDevice runs a real simulation on a
// seeded zipf fleet with aggregator contention and checks the acceptance
// criterion end to end: every committed round's critical path terminates at
// the round's commit (modulo the broadcast tail), and the blamed straggler
// is the device the fleet profiles and cost model independently predict to
// be the slowest chain — computed here from first principles, not from the
// trace.
func TestE2EStragglerBlameMatchesSlowestDevice(t *testing.T) {
	const seed = 11
	g, err := graph.Generate(graph.GenConfig{
		Name: "sim", N: 60, M: 260, Classes: 2, FeatureDim: 8,
		PowerLaw: 2.2, Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, g, core.Config{
		Task: core.Supervised, MCMCIterations: 15, Shards: g.N,
		Sched: core.SchedSync, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := fed.DefaultCostModel()
	cost.AggBytesPerSecond = 2e6 // contended shared link: agg-serve spans appear
	tr := obs.NewVirtualTracer()
	sc := sim.Scenario{
		Fleet: sim.FleetZipf, ZipfSkew: 2,
		Rounds: 4, Participation: 1, Churn: 0, Rejoin: -1,
		EvalEvery: -1, Cost: cost, Seed: seed, Tracer: tr,
	}
	s, err := sim.New(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}

	// Predict the slowest chain from the fleet profiles and cost model:
	// with no churn and full participation every device starts at the
	// previous commit, so the aggregator's FIFO finishes last with the
	// device whose compute + transfer is largest.
	profiles, err := sim.BuildProfiles(sc, g.N) // the fleet the simulator drew
	if err != nil {
		t.Fatal(err)
	}
	wl := sys.Workloads()
	up := sys.DeviceUploadBytes()
	slowest, slowestT := -1, math.Inf(-1)
	for d := range profiles {
		ct := (cost.BaseCompute.Seconds() + float64(wl[d])*cost.PerLeafPair.Seconds()) * profiles[d].Compute
		xt := cost.MsgLatency.Seconds()*profiles[d].Latency +
			float64(up[d])/(cost.BytesPerSecond*profiles[d].Bandwidth)
		if ct+xt > slowestT {
			slowest, slowestT = d, ct+xt
		}
	}

	an, err := AnalyzeTrace(tr.Events(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Rounds) != len(res.Timeline) {
		t.Fatalf("analyzer saw %d rounds, simulator committed %d", len(an.Rounds), len(res.Timeline))
	}
	for i, cp := range an.Rounds {
		rs := res.Timeline[i]
		if math.Abs(cp.Commit-rs.Commit) > timeEps {
			t.Fatalf("round %d: analyzer commit %v, simulator %v", cp.Round, cp.Commit, rs.Commit)
		}
		if len(cp.Spans) == 0 {
			t.Fatalf("round %d: empty critical path", cp.Round)
		}
		if end := cp.Spans[len(cp.Spans)-1].End; math.Abs(end-cp.Commit) > timeEps {
			t.Fatalf("round %d: path ends at %v, commit at %v", cp.Round, end, cp.Commit)
		}
		if cp.Straggler != slowest {
			t.Fatalf("round %d: blamed d%d, fleet math predicts d%d", cp.Round, cp.Straggler, slowest)
		}
	}
	if len(an.Blame) == 0 || an.Blame[0].Device != slowest {
		t.Fatalf("blame table top entry %+v, want device %d", an.Blame, slowest)
	}
}

// TestE2ERunObserverStreamsTimeline wires Scenario.RoundObserver to a
// record writer and checks the streamed rows equal the simulator's own
// timeline — the -run-out plumbing, minus the CLI.
func TestE2ERunObserverStreamsTimeline(t *testing.T) {
	const seed = 3
	g, err := graph.Generate(graph.GenConfig{
		Name: "sim", N: 40, M: 160, Classes: 2, FeatureDim: 8,
		PowerLaw: 2.2, Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, g, core.Config{
		Task: core.Supervised, MCMCIterations: 15, Shards: g.N,
		Sched: core.SchedSync, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/rec"
	w, err := NewWriter(dir, NewManifest("test", nil, seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{
		Rounds: 3, Participation: 1, Churn: 0, EvalEvery: -1, Seed: seed,
		RoundObserver: func(rs sim.RoundStats) {
			if err := w.Round(RowFromSim(rs)); err != nil {
				t.Error(err)
			}
		},
	}
	s, err := sim.New(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{
		MetricName: res.Metric, FinalMetric: res.FinalMetric,
		WallClock: res.WallClock, TotalBytes: res.TotalBytes,
		TotalEnergy: res.TotalEnergy,
	}, nil); err != nil {
		t.Fatal(err)
	}
	rec, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(rec.Rounds) != len(res.Timeline) {
		t.Fatalf("record has %d rounds, timeline %d", len(rec.Rounds), len(res.Timeline))
	}
	for i, row := range rec.Rounds {
		if row != RowFromSim(res.Timeline[i]) {
			t.Fatalf("round %d: recorded %+v, timeline %+v", i, row, RowFromSim(res.Timeline[i]))
		}
	}
	if rec.Manifest.FinalMetric != res.FinalMetric || rec.Manifest.WallClock != res.WallClock {
		t.Fatalf("summary mismatch: %+v vs final %v wall %v",
			rec.Manifest, res.FinalMetric, res.WallClock)
	}
}
