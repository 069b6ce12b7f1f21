package sim

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/obs"
)

// These timelines were recorded at commit fa4bb06 — before the fleet
// subsystem, aggregator contention, and energy accounting existed — on the
// simulator whose links were all independent. They freeze the equivalence
// contract of the contention refactor: with aggregator capacity left at
// zero (infinite — the default cost model), the M/G/1 server and the energy
// accounting must not perturb a single bit of the simulated timeline, under
// either scheduling discipline. Values are hex floats, compared exactly.
// One value was re-recorded since: the async round-1 loss moved 2 ulps when
// the first layer began multiplying through core.Forest.XView, which sums
// in another order; every clock, count and byte stayed as recorded.

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
			{1, "0x1.615a0c1bdd0c8p-07", "0x1.e6bc967647064p-07", 55, 42, 341712, "0x1.52ad073e8bf1dp-01"},
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
// and moments — as a core.Replica fingerprint. The fingerprints were
// re-recorded when the first layer began multiplying through
// core.Forest.XView: the weights moved by ≤ 1e-15 (summation order), every
// loss, metric and step count stayed as recorded.
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
		print: 0x334d2b0c8cfbbb7c,
	},
	{
		name: "unsupervised/ring:2",
		losses: []string{
			"0x1.62510067320f8p-01", "0x1.6208d08502fadp-01",
			"0x1.61cd582e6f64ap-01", "0x1.61001bf9886f6p-01",
		},
		final: "0x1.3767c7c1906a5p-01",
		print: 0xde8b9be228ef850a,
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

// runHashes pins one whole run as FNV-1a hashes: every RoundStats field
// (floats by their bits), every Result field (DeviceEnergy included), the
// virtual-clock tracer's Chrome bytes, the Prometheus scrape of a registry
// attached only to Scenario.Metrics, and the final model's replica
// fingerprint. The replica fingerprints were re-recorded when the first
// layer began multiplying through core.Forest.XView (weights moved by
// ≤ 2e-16, summation order); the other four hashes stayed as recorded.
type runHashes struct {
	timeline, result, trace, metrics, replica uint64
}

// runGolden covers what the older goldens leave out: aggregator contention
// with catch-ups, async with the energy policy and model selection, gossip
// over FIFO links with model selection, drained fleets whose idle rounds
// evaluate and select under both disciplines, and unsupervised gossip. Each
// case's check asserts that its run exercises what the name says.
var runGolden = []struct {
	name  string
	build func(t *testing.T) (*core.System, core.Objective, Scenario)
	check func(t *testing.T, res *Result)
	want  runHashes
}{
	{
		name: "sync/zipf/contended/catch-ups",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, split := simSystem(t, core.SchedSync, 0, 0, 53)
			cost := fed.DefaultCostModel()
			cost.AggBytesPerSecond = 2e6
			return sys, core.NewSupervisedObjective(split), Scenario{
				Fleet: FleetZipf, Churn: 0.3, Rejoin: 0.5, Participation: 0.75,
				Rounds: 6, EvalEvery: 3, Cost: cost, Seed: 53,
			}
		},
		check: func(t *testing.T, res *Result) {
			if sumRounds(res, func(rs RoundStats) int { return rs.CatchUps }) == 0 {
				t.Error("no catch-ups")
			}
		},
		want: runHashes{timeline: 0xd2595175656fa4c4, result: 0x6bb2e6bc52ae681b, trace: 0xd3479d18c1cbdbdd, metrics: 0x35cdf497cbe2b2, replica: 0x9d88f4f6bc62ca14},
	},
	{
		name: "async/periodic/energy/selection",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, split := simSystem(t, core.SchedAsync, 2, 0, 59)
			return sys, core.NewSupervisedObjective(split), Scenario{
				Fleet: FleetPeriodic, TracePeriod: 4, TraceDuty: 0.75,
				Policy: PolicyEnergy, ModelSelection: true,
				Rounds: 8, EvalEvery: 2, Seed: 59,
			}
		},
		check: func(t *testing.T, res *Result) {
			if sumRounds(res, func(rs RoundStats) int { return rs.Available - rs.Participants }) == 0 {
				t.Error("the energy policy excluded nobody")
			}
			if sumRounds(res, func(rs RoundStats) int { return b2i(rs.ValEvaluated) }) == 0 {
				t.Error("model selection never evaluated")
			}
		},
		want: runHashes{timeline: 0x23740713347671c7, result: 0xd8dca53e3de3f396, trace: 0xbe7c4fdde388d315, metrics: 0xba8cff766ef21ad8, replica: 0x811db967ce573623},
	},
	{
		name: "gossip/ba:2/fifo/churn/selection",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, split := simSystem(t, core.SchedGossip, 0, 0, 61)
			return sys, core.NewSupervisedObjective(split), Scenario{
				Fleet: FleetZipf, Churn: 0.2, Rejoin: 0.5, Participation: 0.8,
				LinkDiscipline: "fifo", ModelSelection: true,
				Rounds: 6, EvalEvery: 2, Seed: 61, Topology: mustTopo(t, "ba:2", sys.G.N, 61),
			}
		},
		check: func(t *testing.T, res *Result) {
			if sumRounds(res, func(rs RoundStats) int { return rs.Left }) == 0 {
				t.Error("no churn")
			}
			if sumRounds(res, func(rs RoundStats) int { return b2i(rs.ValEvaluated) }) == 0 {
				t.Error("model selection never evaluated")
			}
		},
		want: runHashes{timeline: 0x9c97077beb497497, result: 0x9c4f8d9cf979eb6, trace: 0xc0e89dea57194f2e, metrics: 0x52320a83cafc8d5b, replica: 0x477f859653b0ee08},
	},
	{
		name: "sync/drained/idle-selection",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, split := smallSystem(t, core.SchedSync, 0, 67)
			return sys, core.NewSupervisedObjective(split), Scenario{
				Churn: 0.6, Rejoin: -1, ModelSelection: true,
				Rounds: 8, EvalEvery: 2, Seed: 67,
			}
		},
		check: checkIdleSelection,
		want:  runHashes{timeline: 0xb3c461f068993d43, result: 0xcae64cf6245bfab2, trace: 0xcc39a87c14467abb, metrics: 0x3bcc00cb90b3e9ed, replica: 0xc9d5b8d8e022b7aa},
	},
	{
		name: "gossip/drained/idle-selection",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, split := smallSystem(t, core.SchedGossip, 0, 67)
			return sys, core.NewSupervisedObjective(split), Scenario{
				Churn: 0.6, Rejoin: -1, ModelSelection: true,
				Rounds: 8, EvalEvery: 2, Seed: 67, Topology: mustTopo(t, "ring:2", sys.G.N, 67),
			}
		},
		check: checkIdleSelection,
		want:  runHashes{timeline: 0x1fbae5d4f28a8f4f, result: 0xc755590ffcce795a, trace: 0xfe8453fcee628dfd, metrics: 0x99979a27b739d99f, replica: 0xd313fea25ced953},
	},
	{
		name: "gossip/unsupervised/ring:2",
		build: func(t *testing.T) (*core.System, core.Objective, Scenario) {
			sys, es := unsupSimSystem(t, core.SchedGossip, 0, 0, 71)
			return sys, core.NewUnsupervisedObjective(es), Scenario{
				Churn: 0.1, Participation: 0.8, Rounds: 4, EvalEvery: 2, Seed: 71,
				Topology: mustTopo(t, "ring:2", sys.G.N, 71),
			}
		},
		check: func(t *testing.T, res *Result) {
			if res.Metric != "AUC" {
				t.Errorf("metric %q, want AUC", res.Metric)
			}
		},
		want: runHashes{timeline: 0x971e9762a86675ce, result: 0xe1253e75457d274e, trace: 0xe7078bb6c7ce918, metrics: 0x676eff9e5598c5a7, replica: 0xed0e37307ce9388e},
	},
}

// checkIdleSelection requires an idle round (nobody online) that still
// evaluated the test and validation metrics.
func checkIdleSelection(t *testing.T, res *Result) {
	for _, rs := range res.Timeline {
		if rs.Participants == 0 && rs.Evaluated && rs.ValEvaluated {
			return
		}
	}
	t.Error("no idle round evaluated and selected")
}

func sumRounds(res *Result, f func(RoundStats) int) int {
	n := 0
	for _, rs := range res.Timeline {
		n += f(rs)
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRunGolden replays each whole-run golden with a tracer and a metrics
// registry attached and compares every hash exactly.
func TestRunGolden(t *testing.T) {
	for _, c := range runGolden {
		t.Run(c.name, func(t *testing.T) {
			sys, obj, sc := c.build(t)
			reg, tr := obs.New(), obs.NewVirtualTracer()
			sc.Metrics, sc.Tracer = reg, tr
			s, err := New(sys, sc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(obj)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, res)
			var trace, scrape bytes.Buffer
			if err := tr.WriteChrome(&trace); err != nil {
				t.Fatal(err)
			}
			if err := reg.WritePrometheus(&scrape); err != nil {
				t.Fatal(err)
			}
			got := runHashes{
				timeline: hashFields(res.Timeline),
				result:   hashFields(*res),
				trace:    hashBytes(trace.Bytes()),
				metrics:  hashBytes(scrape.Bytes()),
				replica:  sys.NewReplica().Fingerprint(),
			}
			if got != c.want {
				t.Errorf("hashes %#v, want %#v", got, c.want)
			}
		})
	}
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// hashFields hashes every field of v, recursively, with floats by their
// bits and slices and strings prefixed by their length.
func hashFields(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func hashValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Int, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.Bool:
		word(uint64(b2i(v.Bool())))
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}
