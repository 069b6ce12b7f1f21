package sim

import (
	"math/rand"
	"strconv"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
)

// These timelines were recorded at commit fa4bb06 — before the fleet
// subsystem, aggregator contention, and energy accounting existed — on the
// simulator whose links were all independent. They freeze the equivalence
// contract of the contention refactor: with aggregator capacity left at
// zero (infinite — the default cost model), the M/G/1 server and the energy
// accounting must not perturb a single bit of the simulated timeline, under
// either scheduling discipline. Values are hex floats, compared exactly.

type goldenRound struct {
	round         int
	start, commit string // hex float64
	avail, part   int
	bytes         int64
	loss          string // hex float64
}

var preFleetGolden = map[core.Sched]struct {
	rounds []goldenRound
	final  string
	wall   string
	bytes  int64
}{
	core.SchedSync: {
		rounds: []goldenRound{
			{0, "0x0p+00", "0x1.0877cc5655874p-05", 80, 60, 486864, "0x1.59e5bb492b355p-01"},
			{1, "0x1.0877cc5655874p-05", "0x1.f1a6fcaf0cefdp-05", 55, 42, 381312, "0x1.528012e83a606p-01"},
			{2, "0x1.f1a6fcaf0cefdp-05", "0x1.7a55adcdedddep-04", 52, 39, 378792, "0x1.57b95cb0779bep-01"},
			{3, "0x1.7a55adcdedddep-04", "0x1.f0f270f9cf182p-04", 48, 36, 351216, "0x1.46a7deed3baep-01"},
			{4, "0x1.f0f270f9cf182p-04", "0x1.42531faa76c87p-03", 52, 39, 389736, "0x1.32eeb0c1f30fp-01"},
			{5, "0x1.42531faa76c87p-03", "0x1.847112c00c2a4p-03", 57, 43, 410568, "0x1.27d5a07c71aecp-01"},
			{6, "0x1.847112c00c2a4p-03", "0x1.c68f05d5a18c1p-03", 48, 36, 338256, "0x1.2b5efe84fee51p-01"},
			{7, "0x1.c68f05d5a18c1p-03", "0x1.065775c91293p-02", 56, 42, 416448, "0x1.1a630c77d96cap-01"},
		},
		final: "0x1.999999999999ap-01",
		wall:  "0x1.065775c91293p-02",
		bytes: 3153192,
	},
	core.SchedAsync: {
		rounds: []goldenRound{
			{0, "0x0p+00", "0x1.615a0c1bdd0c8p-07", 80, 60, 486864, "0x1.59e5bb492b355p-01"},
			{1, "0x1.615a0c1bdd0c8p-07", "0x1.e6bc967647064p-07", 55, 42, 341712, "0x1.52ad073e8bf1bp-01"},
			{2, "0x1.e6bc967647064p-07", "0x1.5dc6c885131ccp-04", 52, 39, 313992, "0x1.57802471fd1c6p-01"},
			{3, "0x1.5dc6c885131ccp-04", "0x1.5dc6c885131ccp-04", 48, 36, 304416, "0x1.472b8365edbccp-01"},
			{4, "0x1.5dc6c885131ccp-04", "0x1.5dc6c885131ccp-04", 52, 39, 339336, "0x1.33c6a7b6e4a3dp-01"},
			{5, "0x1.5dc6c885131ccp-04", "0x1.8874d0e2496adp-04", 57, 43, 360168, "0x1.28a0e302897fcp-01"},
			{6, "0x1.8874d0e2496adp-04", "0x1.951106dea8456p-04", 48, 36, 309456, "0x1.2ae63231cac8dp-01"},
			{7, "0x1.951106dea8456p-04", "0x1.753d3d8349b3dp-03", 56, 42, 369648, "0x1.1b1d6a4913fc9p-01"},
		},
		final: "0x1.999999999999ap-01",
		wall:  "0x1.753d3d8349b3dp-03",
		bytes: 2825592,
	},
}

func hexFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden hex float %q: %v", s, err)
	}
	return v
}

// TestPreFleetTimelineGolden replays the frozen scenario through the
// current simulator with contention disabled and checks bit-identity.
func TestPreFleetTimelineGolden(t *testing.T) {
	for sched, want := range preFleetGolden {
		stale := 0
		if sched == core.SchedAsync {
			stale = 2
		}
		g, err := graph.Generate(graph.GenConfig{
			Name: "sim", N: 80, M: 360, Classes: 2, FeatureDim: 10,
			PowerLaw: 2.2, Homophily: 0.85, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, g, core.Config{
			Task: core.Supervised, MCMCIterations: 15, Shards: g.N,
			Sched: sched, Staleness: stale, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(sys, churnScenario(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Timeline) != len(want.rounds) {
			t.Fatalf("%v: %d rounds, want %d", sched, len(res.Timeline), len(want.rounds))
		}
		for i, w := range want.rounds {
			rs := res.Timeline[i]
			if rs.Round != w.round || rs.Available != w.avail || rs.Participants != w.part || rs.Bytes != w.bytes {
				t.Errorf("%v round %d: got (avail=%d part=%d bytes=%d), want (%d %d %d)",
					sched, i, rs.Available, rs.Participants, rs.Bytes, w.avail, w.part, w.bytes)
			}
			if rs.Start != hexFloat(t, w.start) || rs.Commit != hexFloat(t, w.commit) {
				t.Errorf("%v round %d: clock (start=%x commit=%x), want (%s %s)",
					sched, i, rs.Start, rs.Commit, w.start, w.commit)
			}
			if rs.Loss != hexFloat(t, w.loss) {
				t.Errorf("%v round %d: loss %x, want %s", sched, i, rs.Loss, w.loss)
			}
		}
		if res.FinalMetric != hexFloat(t, want.final) {
			t.Errorf("%v: final metric %x, want %s", sched, res.FinalMetric, want.final)
		}
		if res.WallClock != hexFloat(t, want.wall) {
			t.Errorf("%v: wall clock %x, want %s", sched, res.WallClock, want.wall)
		}
		if res.TotalBytes != want.bytes {
			t.Errorf("%v: total bytes %d, want %d", sched, res.TotalBytes, want.bytes)
		}
	}
}

// gossipGolden freezes decentralized training bit for bit. The values were
// recorded while every local step still combined all N pooled rows and
// every replica store and mix still allocated fresh Adam moments; restricting
// a step to the rows its loss reads, and mixing replicas in place, must not
// move a bit of them. Each run pins every round's loss and the final metric
// as hex floats, and the final consensus model — weights, Adam step count
// and moments — as a core.Replica fingerprint.
var gossipGolden = []struct {
	name   string
	losses []string // hex float64, one per round
	final  string   // hex float64
	print  uint64   // core.Replica.Fingerprint of the final consensus
}{
	{
		name: "supervised/ba:2/churn",
		losses: []string{
			"0x1.5a12cee230dafp-01", "0x1.4cba8c72c53d6p-01", "0x1.312349678cb72p-01",
			"0x1.354b17c93e3efp-01", "0x1.26c14d970c0edp-01", "0x1.1bdeb9b715e71p-01",
		},
		final: "0x1.6666666666666p-01",
		print: 0xacfe639725917c68,
	},
	{
		name: "unsupervised/ring:2",
		losses: []string{
			"0x1.62510067320f8p-01", "0x1.6208d08502fadp-01",
			"0x1.61cd582e6f64ap-01", "0x1.61001bf9886f6p-01",
		},
		final: "0x1.3767c7c1906a5p-01",
		print: 0x232ea93d243711ee,
	},
}

// TestGossipTimelineGolden replays the frozen gossip runs: a supervised run
// on a Barabási–Albert contact graph under churn and 70 % participation (so
// replicas that never stepped reach the mix with nil Adam moments), and an
// unsupervised run on a ring.
func TestGossipTimelineGolden(t *testing.T) {
	for _, want := range gossipGolden {
		var (
			sys *core.System
			obj core.Objective
			sc  Scenario
		)
		switch want.name {
		case "supervised/ba:2/churn":
			var split *graph.NodeSplit
			sys, split = simSystem(t, core.SchedGossip, 0, 0, 41)
			obj = core.NewSupervisedObjective(split)
			sc = Scenario{Fleet: FleetZipf, Churn: 0.1, Rejoin: 0.5, Participation: 0.7,
				Rounds: 6, EvalEvery: 3, Seed: 41, Topology: mustTopo(t, "ba:2", sys.G.N, 41)}
		default:
			var es *graph.EdgeSplit
			sys, es = unsupSimSystem(t, core.SchedGossip, 0, 0, 43)
			obj = core.NewUnsupervisedObjective(es)
			sc = Scenario{Rounds: 4, EvalEvery: 2, Seed: 43, Topology: mustTopo(t, "ring:2", sys.G.N, 43)}
		}
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(obj)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Timeline) != len(want.losses) {
			t.Fatalf("%s: %d rounds, want %d", want.name, len(res.Timeline), len(want.losses))
		}
		for i, w := range want.losses {
			if l := res.Timeline[i].Loss; l != hexFloat(t, w) {
				t.Errorf("%s round %d: loss %x, want %s", want.name, i, l, w)
			}
		}
		if res.FinalMetric != hexFloat(t, want.final) {
			t.Errorf("%s: final metric %x, want %s", want.name, res.FinalMetric, want.final)
		}
		if got := sys.NewReplica().Fingerprint(); got != want.print {
			t.Errorf("%s: consensus fingerprint %#x, want %#x", want.name, got, want.print)
		}
	}
}
