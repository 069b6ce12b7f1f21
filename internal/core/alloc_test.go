package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/nn"
)

// Allocation-regression guard for the tape-based engine: once the per-shard
// tapes are warm, a steady-state training epoch must stay under a small
// fixed allocation budget. The budgets are ~4× the measured steady state
// (tens of allocations — slice headers and closures in the round
// bookkeeping), and orders of magnitude below the pre-tape engine
// (thousands of allocations per epoch: every op output, gradient, and
// scratch matrix was heap-allocated and GC'd). scripts/ci.sh runs these as
// the allocation gate.

// epochAllocBudget is the per-epoch allocation ceiling for a steady-state
// supervised or unsupervised engine epoch with Workers=1 and 32 shards.
// Measured: 2 for either task and either backbone. A GAT epoch measured 66
// while each layer forward built a slice of per-head outputs; the pre-tape
// engine sat in the thousands at the same configuration.
const epochAllocBudget = 250

// allocSystem builds a single-worker system sized for the allocation tests.
// Shards is pinned so the budget does not scale with the host's CPU count.
func allocSystem(t *testing.T, task Task, bb nn.Backbone) *System {
	t.Helper()
	g := engineGraph(t, 21)
	sys, err := NewSystem(g, g, Config{
		Task: task, Backbone: bb, Epochs: 1, MCMCIterations: 10, Workers: 1, Shards: 32, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// allocBackbones are the encoders the epoch budgets run on: both of the
// paper's backbones, so a GAT layer's attention is held to the same budget
// as a GCN layer's aggregation.
var allocBackbones = []nn.Backbone{nn.GCN, nn.GAT}

func TestSupervisedEpochAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, bb := range allocBackbones {
		t.Run(bb.String(), func(t *testing.T) {
			sys := allocSystem(t, Supervised, bb)
			weights := make([]float64, sys.G.N)
			for v := 0; v < sys.G.N; v++ {
				if v%2 == 0 {
					weights[v] = 1
				}
			}
			lossFn := func(pooled *autodiff.Value) *autodiff.Value {
				logits := sys.Head.Forward(pooled)
				return autodiff.SoftmaxCrossEntropy(logits, sys.G.Labels, weights)
			}
			// Warm the tapes, slabs, and gradient buffers.
			for i := 0; i < 3; i++ {
				sys.eng.step(nil, lossFn)
			}
			allocs := testing.AllocsPerRun(10, func() {
				sys.eng.step(nil, lossFn)
			})
			if allocs > epochAllocBudget {
				t.Fatalf("steady-state supervised %s epoch allocates %.0f times, budget %d", bb, allocs, epochAllocBudget)
			}
		})
	}
}

func TestUnsupervisedEpochAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, bb := range allocBackbones {
		t.Run(bb.String(), func(t *testing.T) {
			sys := allocSystem(t, Unsupervised, bb)
			// Fixed pair lists: samplePairs' slice growth is per-epoch input
			// assembly, not engine work, and the trainer reuses the engine
			// exactly like this with fresh slices.
			idxU, idxV, ys, _ := sys.samplePairs(nil, nil, nil, nil)
			if len(idxU) == 0 {
				t.Fatal("no training pairs")
			}
			lossFn := func(pooled *autodiff.Value) *autodiff.Value {
				scores := autodiff.PairDot(pooled, idxU, idxV)
				return autodiff.LogisticLoss(scores, ys)
			}
			for i := 0; i < 3; i++ {
				sys.eng.step(nil, lossFn)
			}
			allocs := testing.AllocsPerRun(10, func() {
				sys.eng.step(nil, lossFn)
			})
			if allocs > epochAllocBudget {
				t.Fatalf("steady-state unsupervised %s epoch allocates %.0f times, budget %d", bb, allocs, epochAllocBudget)
			}
		})
	}
}

// TestUnsupervisedSessionAllocBudget extends the allocation gate to the
// full session path for the task with per-epoch sampling: a steady-state
// Session.Step — negative-sampling pair draw (pooled idxU/idxV/ys buffers),
// engine epoch, traffic accounting, stats append — must stay within the
// same budget. Before the pair buffers were pooled, every epoch rebuilt the
// three slices from nil (a dozen-plus grow-reallocations over thousands of
// pairs each).
func TestUnsupervisedSessionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	sys := allocSystem(t, Unsupervised, nn.GCN)
	// A nil edge split: validation-based model selection is not part of the
	// steady state being measured (the supervised trainer's is interleaved
	// eval, already covered by TestEvaluationDoesNotPerturbTraining).
	sess, err := sys.NewSession(NewUnsupervisedObjective(nil))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the tapes, slabs, gradient buffers, pair buffers, and the stats
	// slices.
	for i := 0; i < 5; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs > epochAllocBudget {
		t.Fatalf("steady-state unsupervised session step allocates %.0f times, budget %d", allocs, epochAllocBudget)
	}
}

// freshTapeLosses is the fresh-tape reference: it drives obj's session through
// Cfg.Epochs steps exactly like TrainSupervised/TrainUnsupervised, but throws
// the engine's tapes away before every step, so each epoch records on
// brand-new tapes instead of recycled ones.
func freshTapeLosses(t *testing.T, sys *System, obj Objective) []float64 {
	t.Helper()
	sess, err := sys.NewSession(obj)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < sys.Cfg.Epochs; epoch++ {
		dropTapes(sys)
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sess.FinishRounds()
	return sess.Stats().Losses
}

// dropTapes throws the engine's tapes away, so the next step records on
// brand-new ones.
func dropTapes(sys *System) {
	for i := range sys.eng.tapes {
		sys.eng.tapes[i] = nil
	}
	sys.eng.serial = nil
}

// TestTapeReuseMatchesFreshTapes is the tape-lifecycle golden at system
// level: recycling the per-shard tapes across epochs must produce
// bit-identical loss traces to rebuilding every tape from scratch each epoch
// (freshTapeLosses), for several epochs, both backbones, and both tasks.
func TestTapeReuseMatchesFreshTapes(t *testing.T) {
	g := engineGraph(t, 22)
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		cfg := Config{Backbone: bb, Epochs: 5, MCMCIterations: 20, Workers: 2, Seed: 22}

		sup, split := supervisedSystem(t, g, cfg)
		requireIdentical(t, bb.String()+"/supervised reuse vs fresh",
			supervisedLosses(t, g, cfg), freshTapeLosses(t, sup, NewSupervisedObjective(split)))
		uns, es := unsupervisedSystem(t, g, cfg)
		requireIdentical(t, bb.String()+"/unsupervised reuse vs fresh",
			unsupervisedLosses(t, g, cfg), freshTapeLosses(t, uns, NewUnsupervisedObjective(es)))
	}
}

// TestTapeReuseMatchesFreshTapesAsync extends the golden to delayed
// gradients, as the simulator's async rounds hand them to StepRound: the
// delayed-gradient queue detaches buffers from the view parameters — the
// one place tape-era buffers outlive a round. sparseRoundPlans' rounds run
// through recycled tapes and through fresh ones.
func TestTapeReuseMatchesFreshTapesAsync(t *testing.T) {
	g := engineGraph(t, 23)
	cfg := Config{MCMCIterations: 20, Sched: SchedAsync, Staleness: 2, Workers: 2, Seed: 23}
	reused, stale := asyncRoundLosses(t, g, cfg, sparseRoundPlans(g.N), false)
	fresh, _ := asyncRoundLosses(t, g, cfg, sparseRoundPlans(g.N), true)
	if stale == 0 {
		t.Fatal("no delayed gradient was applied")
	}
	requireIdentical(t, "async reuse vs fresh", reused, fresh)
}

// TestEvaluationDoesNotPerturbTraining guards the tape-reset discipline
// around evaluation: interleaving eval-mode forwards (which reset and
// re-record the shard tapes) between training epochs must not change the
// training trajectory.
func TestEvaluationDoesNotPerturbTraining(t *testing.T) {
	g := engineGraph(t, 24)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(evalBetween bool) []float64 {
		sys, err := NewSystem(g, g, Config{Task: Supervised, Epochs: 1, MCMCIterations: 20, Seed: 24})
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, sys.G.N)
		for _, v := range split.Train {
			weights[v] = 1
		}
		lossFn := func(pooled *autodiff.Value) *autodiff.Value {
			return autodiff.SoftmaxCrossEntropy(sys.Head.Forward(pooled), sys.G.Labels, weights)
		}
		var losses []float64
		for epoch := 0; epoch < 6; epoch++ {
			losses = append(losses, sys.eng.step(nil, lossFn))
			if evalBetween {
				if _, err := sys.EvaluateAccuracy(split.IsTest); err != nil {
					t.Fatal(err)
				}
			}
		}
		return losses
	}
	requireIdentical(t, "interleaved eval must not change training", run(false), run(true))
}

// roundAllocBudgetShardsN is the per-round allocation ceiling for a
// steady-state Session.StepRound at one device per shard (120 shards,
// Workers=1) with everyone present and 30 % of the gradients delayed by 1–2
// rounds: measured 6, +25 %. Those six are the two worker-pool closures and
// the traffic accounting's parameter count (nn.CountParams builds a
// parameter list); partials, cut gradients, the combine's scratch and the
// delayed gradients' buffers are all recycled. Before the delayed-gradient
// sets were recycled this schedule measured 351: every delayed shard
// reallocated its four view-gradient buffers the next round.
const roundAllocBudgetShardsN = 8

func TestRoundAllocBudgetShardsN(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	sys, _, sess := roundSession(t, 25)
	sys.eng.workers = 1
	n := sys.G.N
	rng := rand.New(rand.NewSource(25))
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	plans := make([]RoundPlan, 8)
	for r := range plans {
		delays := make([]int, n)
		for v := range delays {
			if rng.Float64() < 0.3 {
				delays[v] = 1 + rng.Intn(2)
			}
		}
		plans[r] = RoundPlan{Active: all, Delays: delays, TTL: 2}
	}
	round := 0
	step := func() {
		if _, err := sess.StepRound(plans[round%len(plans)]); err != nil {
			t.Fatal(err)
		}
		round++
	}
	// Warm the tapes, the stale-partial cache, and the delayed-gradient
	// sets through two laps of the schedule.
	for i := 0; i < 2*len(plans); i++ {
		step()
	}
	allocs := testing.AllocsPerRun(2*len(plans), step)
	if allocs > roundAllocBudgetShardsN {
		t.Fatalf("steady-state Shards=N round allocates %.0f times, budget %d", allocs, roundAllocBudgetShardsN)
	}
}

// soloRoundAllocBudget is the per-round allocation ceiling for a
// steady-state supervised one-device Session.StepRound at one device per
// shard (120 shards, Workers=1) — a gossip participant's local step, which
// combines and scores only the device's own pooled row. Measured 6, +25 %:
// the same worker-pool closures and traffic-accounting parameter list as
// roundAllocBudgetShardsN.
const soloRoundAllocBudget = 7

func TestSoloRoundAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	sys, split, sess := roundSession(t, 26)
	sys.eng.workers = 1
	n := sys.G.N
	all, solo := make([]bool, n), make([]bool, n)
	for v := range all {
		all[v] = true
	}
	// Fill every device's stale-partial cache; a TTL of 2n keeps them live.
	if _, err := sess.StepRound(RoundPlan{Active: all, TTL: 2 * n}); err != nil {
		t.Fatal(err)
	}
	round := 0
	step := func() {
		d := split.Train[round%len(split.Train)]
		solo[d] = true
		out, err := sess.StepRound(RoundPlan{Active: solo, TTL: 2 * n})
		solo[d] = false
		if err != nil || out.Skipped {
			t.Fatalf("solo round for device %d: skipped=%v err=%v", d, out.Skipped, err)
		}
		round++
	}
	for range split.Train {
		step()
	}
	allocs := testing.AllocsPerRun(len(split.Train), step)
	if allocs > soloRoundAllocBudget {
		t.Fatalf("steady-state solo round allocates %.0f times, budget %d", allocs, soloRoundAllocBudget)
	}
}

// firstStepBytes is the ceiling on the bytes a fresh system's first
// supervised step allocates at allocSystem's configuration (32 shards,
// Workers=1), per backbone. The first step is where every shard tape grows
// to its high-water mark, so this is the training working set. Measured
// GCN 1 518 640 B and GAT 7 589 816 B once a training forward released what
// its backward does not read and a round kept a byte per entry for dropout
// masks and LeakyReLU branches. One more hidden-layer-sized buffer on every
// shard tape (2 646 forest rows) is 339 kB on GCN and 1.35 MB on GAT; each
// ceiling sits about half that above the measurement, so such a buffer
// fails the test.
var firstStepBytes = map[nn.Backbone]uint64{nn.GCN: 1_700_000, nn.GAT: 8_300_000}

func TestFirstStepAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, bb := range allocBackbones {
		t.Run(bb.String(), func(t *testing.T) {
			best := uint64(math.MaxUint64)
			for range 3 {
				sys := allocSystem(t, Supervised, bb)
				lossFn := func(pooled *autodiff.Value) *autodiff.Value {
					return autodiff.SoftmaxCrossEntropy(sys.Head.Forward(pooled), sys.G.Labels, nil)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sys.eng.step(nil, lossFn)
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("first %s step allocates %d B", bb, best)
			if best > firstStepBytes[bb] {
				t.Fatalf("a fresh system's first %s step allocates %d B, budget %d B", bb, best, firstStepBytes[bb])
			}
		})
	}
}
