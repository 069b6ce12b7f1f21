package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/fleet"
	"lumos/internal/graph"
)

// simSystem assembles a small supervised system with one device per shard —
// the configuration the simulator is designed for.
func simSystem(t testing.TB, sched core.Sched, staleness, workers int, seed int64) (*core.System, *graph.NodeSplit) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "sim", N: 80, M: 360, Classes: 2, FeatureDim: 10,
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
		Sched: sched, Staleness: staleness, Workers: workers, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, split
}

func TestScenarioValidateDefaults(t *testing.T) {
	sc := Scenario{Rounds: 5}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Fleet != FleetUniform || sc.Participation != 1 || sc.Rejoin != 0.5 ||
		sc.PartialTTL != 2 || sc.EvalEvery != 5 {
		t.Fatalf("defaults not filled: %+v", sc)
	}
	if sc.Cost == (fed.CostModel{}) {
		t.Fatal("cost model default not filled")
	}
	for _, bad := range []Scenario{
		{Rounds: 0},
		{Rounds: 5, Churn: 1},
		{Rounds: 5, Participation: 1.5},
		{Rounds: 5, Fleet: "mesh"},
		{Rounds: 5, TraceDuty: 2},
		// A trace fleet without a trace source must be rejected loudly, not
		// silently fall back to a synthetic fleet.
		{Rounds: 5, Fleet: FleetTrace},
		{Rounds: 5, Cost: fed.CostModel{BytesPerSecond: 1, PerLeafPair: -time.Second}},
	} {
		bad := bad
		if err := bad.Validate(); err == nil {
			t.Fatalf("scenario %+v validated", bad)
		}
	}
}

func TestParseFleet(t *testing.T) {
	for _, name := range []string{"uniform", "zipf", "periodic", "trace"} {
		if _, err := ParseFleet(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseFleet("mesh"); err == nil {
		t.Fatal("unknown fleet parsed")
	}
}

func TestParseFleetSpec(t *testing.T) {
	f, path, err := ParseFleetSpec("trace:fleet.csv")
	if err != nil || f != FleetTrace || path != "fleet.csv" {
		t.Fatalf("trace:fleet.csv parsed to (%v, %q, %v)", f, path, err)
	}
	f, path, err = ParseFleetSpec("periodic")
	if err != nil || f != FleetPeriodic || path != "" {
		t.Fatalf("periodic parsed to (%v, %q, %v)", f, path, err)
	}
	// A bare "trace" has no source and no synthetic fallback: the spec
	// parser must reject it with a pointer at the trace:<path> form.
	if _, _, err := ParseFleetSpec("trace"); err == nil {
		t.Fatal("bare trace spec parsed")
	}
	if _, _, err := ParseFleetSpec("trace:"); err == nil {
		t.Fatal("empty trace path parsed")
	}
	if _, _, err := ParseFleetSpec("mesh"); err == nil {
		t.Fatal("unknown fleet spec parsed")
	}
}

func TestBuildProfilesDeterministic(t *testing.T) {
	sc := Scenario{Rounds: 1, Fleet: FleetZipf, Seed: 3}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := BuildProfiles(sc, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildProfiles(sc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fleets")
	}
	slowest, fastest := 0.0, 1e18
	for _, p := range a {
		if p.Compute <= 0 || p.Bandwidth <= 0 || p.Latency <= 0 {
			t.Fatalf("non-positive multiplier: %+v", p)
		}
		if p.Compute > slowest {
			slowest = p.Compute
		}
		if p.Compute < fastest {
			fastest = p.Compute
		}
	}
	if slowest <= 1 || fastest < 0.25 {
		t.Fatalf("zipf fleet lacks heterogeneity: fastest %v slowest %v", fastest, slowest)
	}
}

func TestTraceProfilesCycle(t *testing.T) {
	sc := Scenario{Rounds: 1, Fleet: FleetPeriodic, TracePeriod: 4, TraceDuty: 0.5, Seed: 5}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	ps, err := BuildProfiles(sc, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		on := 0
		for r := 0; r < 4; r++ {
			if p.OnlineAt(r) {
				on++
			}
		}
		if on != 2 {
			t.Fatalf("duty 0.5 over period 4 gave %d online rounds", on)
		}
		if p.OnlineAt(3) != p.OnlineAt(7) {
			t.Fatal("trace availability is not periodic")
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	push := func(at float64, seq int) {
		q.push(event{at: at, seq: seq})
	}
	push(3, 1)
	push(1, 2)
	push(1, 3)
	push(0.5, 4)
	push(1, 5)
	wantSeq := []int{4, 2, 3, 5, 1}
	for i, want := range wantSeq {
		e := q.pop()
		if e.seq != want {
			t.Fatalf("pop %d: got seq %d, want %d", i, e.seq, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left after popping all", q.Len())
	}
}

// The event heap against a sorted list: pushes drawn from a few times (so
// ties are common) interleaved with pops, every pop the (at, seq) minimum of
// what is queued; and a warm queue pushes without allocating.
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var q eventQueue
	var pending []event
	seq := 0
	for step := 0; step < 2000; step++ {
		if len(pending) == 0 || rng.Float64() < 0.55 {
			seq++
			e := event{at: float64(rng.Intn(6)) * 0.5, seq: seq}
			q.push(e)
			pending = append(pending, e)
			continue
		}
		first := 0
		for i, e := range pending {
			if e.before(pending[first]) {
				first = i
			}
		}
		if got := q.pop(); got != pending[first] {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, pending[first])
		}
		pending = append(pending[:first], pending[first+1:]...)
	}
	if q.Len() != len(pending) {
		t.Fatalf("queue holds %d events, want %d", q.Len(), len(pending))
	}
	for q.Len() > 0 {
		q.pop()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < cap(q); i++ {
			q.push(event{at: float64(i % 3), seq: i})
		}
		for q.Len() > 0 {
			q.pop()
		}
	}); allocs != 0 {
		t.Fatalf("a warm event queue allocates %v times per fill and drain", allocs)
	}
}

// churnScenario is the shared stress scenario: heterogeneous fleet, 25%
// churn, partial participation.
func churnScenario(rounds int) Scenario {
	return Scenario{
		Fleet: FleetZipf, ZipfSkew: 1.5,
		Churn: 0.25, Rejoin: 0.5, Participation: 0.75,
		Rounds: rounds, EvalEvery: 4, Seed: 21,
	}
}

// TestSimDeterminismAcrossWorkers is the sim's golden guarantee: the same
// seed and scenario produce a bit-identical event timeline and final
// accuracy whether the engine runs on one worker or eight.
func TestSimDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		sys, split := simSystem(t, core.SchedAsync, 2, workers, 17)
		s, err := New(sys, churnScenario(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("timelines diverge across worker counts")
	}
	if a.FinalMetric != b.FinalMetric {
		t.Fatalf("final accuracy diverges: %v vs %v", a.FinalMetric, b.FinalMetric)
	}
	c := run(1)
	if !reflect.DeepEqual(a.Timeline, c.Timeline) || a.FinalMetric != c.FinalMetric {
		t.Fatal("repeat run with identical seed diverges")
	}
	if a.Metric != "accuracy" {
		t.Fatalf("supervised timeline labeled %q, want accuracy", a.Metric)
	}
}

// TestSimulatorReuseFails: a Simulator runs once. A second Run would
// continue from the first run's clock, availability, lag, energy, servers
// and random streams, so it fails and says to build a new Simulator — under
// star and gossip scheduling. An objective Run rejects up front does not
// spend the simulator.
func TestSimulatorReuseFails(t *testing.T) {
	for _, tc := range []struct {
		sched     core.Sched
		staleness int
	}{{core.SchedAsync, 2}, {core.SchedGossip, 0}} {
		sys, split := simSystem(t, tc.sched, tc.staleness, 0, 19)
		sc := churnScenario(6)
		if tc.sched == core.SchedGossip {
			sc.Topology = mustTopo(t, "ring:2", sys.G.N, 19)
		}
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(core.NewUnsupervisedObjective(nil)); err == nil {
			t.Fatalf("%v: mismatched objective accepted", tc.sched)
		}
		if _, err := s.Run(core.NewSupervisedObjective(split)); err != nil {
			t.Fatalf("%v: first run after a rejected objective: %v", tc.sched, err)
		}
		_, err = s.Run(core.NewSupervisedObjective(split))
		if err == nil || !strings.Contains(err.Error(), "new Simulator") {
			t.Fatalf("%v: second Run on one Simulator returned %v, want an error saying to build a new Simulator", tc.sched, err)
		}
	}
}

// unsupSimSystem assembles a link-prediction system (training-edge subgraph
// + full graph) with one device per shard, plus the edge split whose
// val/test edges drive model evaluation.
func unsupSimSystem(t testing.TB, sched core.Sched, staleness, workers int, seed int64) (*core.System, *graph.EdgeSplit) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "simlink", N: 80, M: 420, Classes: 2, FeatureDim: 10,
		PowerLaw: 2.2, Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(es.TrainGraph, g, core.Config{
		Task: core.Unsupervised, MCMCIterations: 15, Shards: g.N,
		Sched: sched, Staleness: staleness, Workers: workers, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, es
}

// TestUnsupervisedSimDeterminismAcrossWorkers extends the golden guarantee
// to link prediction — the workload the session redesign opened to the
// simulator: same seed + scenario ⇒ DeepEqual timelines and identical final
// AUC for Workers=1 vs 8, under churn, partial participation, and async
// scheduling.
func TestUnsupervisedSimDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		sys, es := unsupSimSystem(t, core.SchedAsync, 2, workers, 37)
		s, err := New(sys, churnScenario(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewUnsupervisedObjective(es))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("unsupervised timelines diverge across worker counts")
	}
	if a.FinalMetric != b.FinalMetric {
		t.Fatalf("final AUC diverges: %v vs %v", a.FinalMetric, b.FinalMetric)
	}
	c := run(1)
	if !reflect.DeepEqual(a.Timeline, c.Timeline) || a.FinalMetric != c.FinalMetric {
		t.Fatal("repeat unsupervised run with identical seed diverges")
	}
	if a.Metric != "AUC" {
		t.Fatalf("unsupervised timeline labeled %q, want AUC", a.Metric)
	}
	// The timeline must carry real signal: positive losses on trained
	// rounds and an above-chance final AUC.
	if a.FinalMetric <= 0.5 {
		t.Fatalf("final AUC %v not above chance", a.FinalMetric)
	}
	trained := 0
	for _, rs := range a.Timeline {
		if !rs.Skipped {
			trained++
			if rs.Loss <= 0 {
				t.Fatalf("round %d: trained with non-positive loss %v", rs.Round, rs.Loss)
			}
		}
	}
	if trained == 0 {
		t.Fatal("scenario never trained")
	}
}

// TestUnsupervisedSimTaskMismatch guards the session task check at the
// simulator boundary: driving a supervised system with a link-prediction
// objective must fail loudly, not silently mis-train.
func TestUnsupervisedSimTaskMismatch(t *testing.T) {
	sys, _ := simSystem(t, core.SchedSync, 0, 0, 41)
	s, err := New(sys, churnScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(core.NewUnsupervisedObjective(nil)); err == nil {
		t.Fatal("unsupervised objective accepted by supervised system")
	}
	// An objective without test data must be rejected before any rounds are
	// simulated: the timeline always evaluates the final round.
	usys, _ := unsupSimSystem(t, core.SchedSync, 0, 0, 41)
	us, err := New(usys, churnScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := us.Run(core.NewUnsupervisedObjective(nil)); err == nil {
		t.Fatal("objective without test edges accepted by the simulator")
	}
}

// TestAsyncBeatsSyncUnderChurn is the headline scenario property: with a
// heterogeneous fleet and ≥20% churn, staleness-bounded async scheduling
// commits the same number of rounds in less simulated wall-clock than the
// synchronous barrier, on an identical availability/participation schedule.
func TestAsyncBeatsSyncUnderChurn(t *testing.T) {
	sc := churnScenario(10)
	sc.Churn = 0.2
	run := func(sched core.Sched, staleness int) *Result {
		sys, split := simSystem(t, sched, staleness, 0, 17)
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	syncRes := run(core.SchedSync, 0)
	asyncRes := run(core.SchedAsync, 2)
	if len(syncRes.Timeline) != len(asyncRes.Timeline) {
		t.Fatalf("round counts differ: %d vs %d", len(syncRes.Timeline), len(asyncRes.Timeline))
	}
	if asyncRes.WallClock >= syncRes.WallClock {
		t.Fatalf("async wall-clock %.3fs not below sync %.3fs", asyncRes.WallClock, syncRes.WallClock)
	}
	// The churn/participation schedule must be identical across disciplines:
	// timing differs, availability must not.
	for i := range syncRes.Timeline {
		if syncRes.Timeline[i].Available != asyncRes.Timeline[i].Available ||
			syncRes.Timeline[i].Participants != asyncRes.Timeline[i].Participants {
			t.Fatalf("round %d: availability schedules diverge between disciplines", i)
		}
	}
}

// TestTimelineInvariants checks a churny run's structure and accounting as
// conservation laws, over every discipline and 20 seeds: monotone commits
// that chain round to round, bounded participation, per-round totals that
// sum to the Result's, and counters that only their discipline can move.
func TestTimelineInvariants(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sched     core.Sched
		staleness int
	}{
		{"sync", core.SchedSync, 0},
		{"async", core.SchedAsync, 2},
		{"gossip", core.SchedGossip, 0},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				sys, split := simSystem(t, tc.sched, tc.staleness, 0, seed)
				sc := churnScenario(12)
				sc.Participation, sc.Seed = 0.7, seed
				if tc.sched == core.SchedGossip {
					sc.Topology = mustTopo(t, "ba:2", sys.G.N, seed)
				}
				s, err := New(sys, sc)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(core.NewSupervisedObjective(split))
				if err != nil {
					t.Fatal(err)
				}
				checkTimeline(t, sys.G.N, tc.sched, res)
			})
		}
	}
}

func checkTimeline(t *testing.T, n int, sched core.Sched, res *Result) {
	t.Helper()
	if len(res.Timeline) != 12 {
		t.Fatalf("timeline has %d rounds, want 12", len(res.Timeline))
	}
	prev := 0.0
	churned := false
	var bytes int64
	stale, dropped, participants := 0, 0, 0
	for _, rs := range res.Timeline {
		if rs.Start != prev || rs.Commit < rs.Start {
			t.Fatalf("round %d: clock (start %v commit %v) does not follow the previous commit %v", rs.Round, rs.Start, rs.Commit, prev)
		}
		prev = rs.Commit
		if rs.Participants > rs.Available || rs.Available > n {
			t.Fatalf("round %d: %d participants of %d available of %d devices", rs.Round, rs.Participants, rs.Available, n)
		}
		if rs.Late > rs.Participants || (rs.Late > 0 && sched != core.SchedAsync) {
			t.Fatalf("round %d: %d late of %d participants under %v", rs.Round, rs.Late, rs.Participants, sched)
		}
		if rs.CatchUps > 0 && sched == core.SchedGossip {
			t.Fatalf("round %d: %d catch-ups under gossip", rs.Round, rs.CatchUps)
		}
		if rs.Participants == 0 && !rs.Skipped {
			t.Fatalf("round %d: trained with nobody online: %+v", rs.Round, rs)
		}
		if !rs.Skipped && sched != core.SchedGossip && rs.Bytes <= 0 {
			t.Fatalf("round %d: trained with no traffic: %+v", rs.Round, rs)
		}
		if rs.Joined > 0 || rs.Left > 0 {
			churned = true
		}
		bytes += rs.Bytes
		stale += rs.StaleApplied
		dropped += rs.Dropped
		participants += rs.Participants
	}
	if !churned {
		t.Fatal("25% churn over 12 rounds produced no join/leave events")
	}
	if res.WallClock != prev {
		t.Fatalf("wall clock %v != last commit %v", res.WallClock, prev)
	}
	if bytes != res.TotalBytes || stale != res.StaleApplied || dropped != res.Dropped {
		t.Fatalf("rounds sum to (bytes %d, stale %d, dropped %d), result says (%d, %d, %d)",
			bytes, stale, dropped, res.TotalBytes, res.StaleApplied, res.Dropped)
	}
	if mean := float64(participants) / float64(len(res.Timeline)); res.MeanParticipants != mean {
		t.Fatalf("mean participants %v, rounds average %v", res.MeanParticipants, mean)
	}
	// The per-device and per-round energy sums add in different orders.
	perDev := 0.0
	for _, e := range res.DeviceEnergy {
		perDev += e
	}
	if math.Abs(perDev-res.TotalEnergy) > 1e-12*res.TotalEnergy {
		t.Fatalf("device energies sum to %v, total %v", perDev, res.TotalEnergy)
	}
	if res.FinalMetric <= 0 || res.TotalBytes <= 0 {
		t.Fatalf("final metric %v, total bytes %d", res.FinalMetric, res.TotalBytes)
	}
}

// TestPeriodicFleetProducesChurn checks that the periodic fleet drives
// availability without the Bernoulli churn process.
func TestPeriodicFleetProducesChurn(t *testing.T) {
	sys, split := simSystem(t, core.SchedSync, 0, 0, 23)
	sc := Scenario{Fleet: FleetPeriodic, TracePeriod: 4, TraceDuty: 0.5, Rounds: 8, Seed: 23}
	s, err := New(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	sawOffline := false
	for _, rs := range res.Timeline {
		if rs.Available < sys.G.N {
			sawOffline = true
		}
	}
	if !sawOffline {
		t.Fatal("periodic fleet with duty 0.5 never took a device offline")
	}
}

// TestStaleAppliedUnderAsync checks the engine coupling: a late update in
// the simulated network must surface as a stale gradient application.
func TestStaleAppliedUnderAsync(t *testing.T) {
	sys, split := simSystem(t, core.SchedAsync, 2, 0, 17)
	s, err := New(sys, churnScenario(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, rs := range res.Timeline {
		late += rs.Late
	}
	if late == 0 {
		t.Skip("scenario produced no late arrivals; nothing to check")
	}
	if res.StaleApplied == 0 {
		t.Fatalf("%d late arrivals but no stale gradient applications", late)
	}
}

// contendedScenario is churnScenario with a finite shared aggregator link,
// so uploads and broadcasts serialize through the M/G/1 server.
func contendedScenario(rounds int) Scenario {
	sc := churnScenario(rounds)
	sc.Cost = fed.DefaultCostModel()
	sc.Cost.AggBytesPerSecond = 2e6
	return sc
}

// TestContentionDeterminismAcrossWorkers extends the sim's golden guarantee
// to the contended aggregator: with a finite shared-link capacity, the same
// seed still produces a bit-identical timeline for Workers 1 vs 8.
func TestContentionDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		sys, split := simSystem(t, core.SchedAsync, 2, workers, 17)
		s, err := New(sys, contendedScenario(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("contended timelines diverge across worker counts")
	}
	if a.FinalMetric != b.FinalMetric || a.TotalEnergy != b.TotalEnergy {
		t.Fatalf("final metric/energy diverge: (%v, %v) vs (%v, %v)",
			a.FinalMetric, a.TotalEnergy, b.FinalMetric, b.TotalEnergy)
	}
}

// TestContentionSlowsCommits: serializing uploads and broadcasts at the
// aggregator can only delay commits relative to independent links, and must
// actually do so somewhere on a busy timeline. Availability, participation,
// losses, and energy are timing-independent and must not move.
func TestContentionSlowsCommits(t *testing.T) {
	run := func(sc Scenario) *Result {
		sys, split := simSystem(t, core.SchedSync, 0, 0, 17)
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(churnScenario(8))
	contended := run(contendedScenario(8))
	if contended.WallClock <= free.WallClock {
		t.Fatalf("contended wall-clock %v not above independent-link %v", contended.WallClock, free.WallClock)
	}
	for i := range free.Timeline {
		f, c := free.Timeline[i], contended.Timeline[i]
		if c.Available != f.Available || c.Participants != f.Participants || c.Loss != f.Loss {
			t.Fatalf("round %d: contention changed training, not just timing", i)
		}
		if c.Commit-c.Start < f.Commit-f.Start {
			t.Fatalf("round %d: contended round shorter than independent-link round", i)
		}
		if f.Energy != c.Energy {
			t.Fatalf("round %d: contention changed energy accounting", i)
		}
	}
}

// TestCommitGrowsWithFleetSize is the M/G/1 sanity check: at fixed
// per-device cost, the queueing delay a contended aggregator adds grows
// with the fleet size, because ~N uploads serialize through one server.
func TestCommitGrowsWithFleetSize(t *testing.T) {
	roundTime := func(n int, capacity float64) float64 {
		g, err := graph.Generate(graph.GenConfig{
			Name: "mg1", N: n, M: 5 * n, Classes: 2, FeatureDim: 10,
			PowerLaw: 2.2, Homophily: 0.85, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, g, core.Config{
			Task: core.Supervised, MCMCIterations: 10, Shards: g.N, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		cost := fed.DefaultCostModel()
		cost.PerLeafPair = 0 // fixed per-device compute regardless of workload
		cost.AggBytesPerSecond = capacity
		sc := Scenario{Rounds: 1, Participation: 1, EvalEvery: -1, Cost: cost, Seed: 31}
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res.WallClock
	}
	const capacity = 1e6
	qSmall := roundTime(40, capacity) - roundTime(40, 0)
	qLarge := roundTime(80, capacity) - roundTime(80, 0)
	if qSmall <= 0 || qLarge <= 0 {
		t.Fatalf("contention added no queueing delay: small %v large %v", qSmall, qLarge)
	}
	if qLarge <= qSmall {
		t.Fatalf("queueing delay did not grow with fleet size: %v (N=40) vs %v (N=80)", qSmall, qLarge)
	}
}

// TestEnergyMonotoneInParticipation: sampling more devices into each round
// can only add fleet energy — the energy/participation trade-off the
// energystudy example rests on.
func TestEnergyMonotoneInParticipation(t *testing.T) {
	run := func(p float64) *Result {
		sys, split := simSystem(t, core.SchedSync, 0, 0, 17)
		sc := Scenario{Fleet: FleetZipf, Participation: p, Rounds: 6, EvalEvery: -1, Seed: 17}
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var prev *Result
	for _, p := range []float64{0.25, 0.5, 1} {
		res := run(p)
		if res.TotalEnergy <= 0 {
			t.Fatalf("participation %v: no energy accounted", p)
		}
		perDev := 0.0
		for _, e := range res.DeviceEnergy {
			perDev += e
		}
		if math.Abs(perDev-res.TotalEnergy) > 1e-9*res.TotalEnergy {
			t.Fatalf("participation %v: device energies sum to %v, total %v", p, perDev, res.TotalEnergy)
		}
		if prev != nil && res.TotalEnergy < prev.TotalEnergy {
			t.Fatalf("participation %v spent less energy (%v) than the smaller quorum (%v)",
				p, res.TotalEnergy, prev.TotalEnergy)
		}
		prev = res
	}
}

// TestTraceFleetDrivesSimulator: a datagen-style sampled trace loaded
// through the fleet layer drives an end-to-end simulation — heterogeneous
// capacity, trace-carried availability cycles, energy — and stays
// deterministic across worker counts.
func TestTraceFleetDrivesSimulator(t *testing.T) {
	tr, err := fleet.SampleTrace(80, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		sys, split := simSystem(t, core.SchedSync, 0, workers, 17)
		sc := contendedScenario(8)
		sc.Fleet, sc.Trace, sc.Churn = FleetTrace, tr, 0
		s, err := New(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(core.NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Timeline, b.Timeline) || a.FinalMetric != b.FinalMetric {
		t.Fatal("trace-driven timelines diverge across worker counts")
	}
	sawOffline := false
	for _, rs := range a.Timeline {
		if rs.Available < 80 {
			sawOffline = true
		}
	}
	if !sawOffline {
		t.Fatal("trace availability cycles never took a device offline")
	}
	if a.TotalEnergy <= 0 {
		t.Fatal("trace-driven run accounted no energy")
	}

	// The trace fleet without a source must fail at construction.
	sys, _ := simSystem(t, core.SchedSync, 0, 0, 17)
	if _, err := New(sys, Scenario{Fleet: FleetTrace, Rounds: 3, Seed: 1}); err == nil {
		t.Fatal("trace fleet without a source accepted")
	}
}

// TestSimModelSelection: with Scenario.ModelSelection on, evaluated rounds
// carry the validation metric and the final model is the best-validation
// one rather than the last committed one — under every discipline. The
// restored model is the one the selected round's test metric was measured
// on, so the final metric equals that round's exactly.
func TestSimModelSelection(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sched     core.Sched
		staleness int
	}{
		{"sync", core.SchedSync, 0},
		{"async", core.SchedAsync, 2},
		{"gossip", core.SchedGossip, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, split := simSystem(t, tc.sched, tc.staleness, 0, 17)
			sc := churnScenario(8)
			sc.EvalEvery, sc.ModelSelection = 2, true
			if tc.sched == core.SchedGossip {
				sc.Topology = mustTopo(t, "ba:2", sys.G.N, 17)
			}
			s, err := New(sys, sc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(core.NewSupervisedObjective(split))
			if err != nil {
				t.Fatal(err)
			}
			best := -1
			for i, rs := range res.Timeline {
				if rs.Evaluated != rs.ValEvaluated {
					t.Fatalf("round %d: test and validation evaluation cadences diverge: %+v", rs.Round, rs)
				}
				if !rs.ValEvaluated {
					continue
				}
				if rs.ValMetric <= 0 {
					t.Fatalf("round %d: validation metric %v", rs.Round, rs.ValMetric)
				}
				if best < 0 || rs.ValMetric > res.Timeline[best].ValMetric {
					best = i
				}
			}
			if best < 0 {
				t.Fatal("model selection never evaluated")
			}
			// The seed is chosen so that the selected round's test metric
			// differs from the last round's: a run that skipped the restore
			// fails below.
			if want, last := res.Timeline[best].Metric, res.Timeline[len(res.Timeline)-1].Metric; want == last {
				t.Fatalf("selected round %d scores the last round's %v: the scenario cannot tell a restore from none", best, last)
			}
			if want := res.Timeline[best].Metric; res.FinalMetric != want {
				t.Fatalf("final metric %v, want round %d's %v (best validation %v)",
					res.FinalMetric, best, want, res.Timeline[best].ValMetric)
			}
		})
	}
}

// TestPermanentChurnDrainsFleet: with rejoin disabled (negative sentinel)
// the fleet drains to zero and empty rounds are skipped — still advancing
// the engine's round clock through the skip path.
func TestPermanentChurnDrainsFleet(t *testing.T) {
	sys, split := simSystem(t, core.SchedSync, 0, 0, 29)
	sc := Scenario{Churn: 0.6, Rejoin: -1, Rounds: 12, Seed: 29}
	s, err := New(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(core.NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 12 {
		t.Fatalf("timeline has %d rounds, want 12", len(res.Timeline))
	}
	prevAvail := sys.G.N
	sawEmpty := false
	for _, rs := range res.Timeline {
		if rs.Joined > 0 || rs.Available > prevAvail {
			t.Fatalf("round %d: device rejoined despite Rejoin<0", rs.Round)
		}
		prevAvail = rs.Available
		if rs.Available == 0 {
			sawEmpty = true
			if !rs.Skipped || rs.Participants != 0 || rs.Commit <= rs.Start {
				t.Fatalf("empty round malformed: %+v", rs)
			}
		}
	}
	if !sawEmpty {
		t.Fatal("60% permanent churn over 12 rounds never drained the fleet")
	}
}
