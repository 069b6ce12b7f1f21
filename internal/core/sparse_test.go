package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// denseOracleForward is the combine the engine used before shard partials
// became leaf-sized, kept as the reference: every shard's partial padded to
// N×OutDim (the pool CSR built over all N vertices straight from
// leafVertex/poolCoef) and the partials summed with autodiff.AddN in shard
// order, all recorded on one tape of its own. Each shard's first layer reads
// the input the engine's does (its XView, or X under engine.denseInput).
func denseOracleForward(e *engine) *tensor.Matrix {
	tp := autodiff.NewTape()
	parts := make([]*autodiff.Value, len(e.shards))
	for i, sh := range e.shards {
		x := tp.ConstSparse(sh.x, sh.view)
		if e.denseInput {
			x = tp.Const(sh.x)
		}
		h := e.encs[i].Forward(sh.conv, x, false, e.rngs[i])
		parts[i] = autodiff.CSRAggregate(h, tensor.NewCSR(e.sys.G.N, sh.leafLocal, sh.leafVertex), sh.poolCoef)
	}
	return autodiff.AddN(parts...).Data
}

func requireBitIdentical(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: entry %d = %x, want %x", name, i, g, w)
		}
	}
}

// sparseRoundPlans is a seeded six-round schedule for a one-device-per-shard
// system that reaches every branch of the round combine: round 0 has
// everyone (filling the stale-partial caches), later rounds ~60 % of the
// fleet; every fifth device stays away from round 1 on, so with TTL 2 its
// cache serves rounds 1–2 and expires in round 3; and 30 % of each round's
// participants have their gradient delayed by 1–2 rounds.
func sparseRoundPlans(n int) []RoundPlan {
	rng := rand.New(rand.NewSource(77))
	plans := make([]RoundPlan, 6)
	for r := range plans {
		active, delays := make([]bool, n), make([]int, n)
		for v := range active {
			active[v] = r == 0 || (v%5 != 0 && rng.Float64() < 0.6)
			if active[v] && rng.Float64() < 0.3 {
				delays[v] = 1 + rng.Intn(2)
			}
		}
		plans[r] = RoundPlan{Active: active, Delays: delays, TTL: 2}
	}
	return plans
}

// runSparseRounds steps sess through sparseRoundPlans and returns the loss
// trace plus the totals that show the schedule did what its doc says.
func runSparseRounds(t *testing.T, sys *System, sess *Session) (losses []float64, stale, expired int) {
	t.Helper()
	for r, plan := range sparseRoundPlans(sys.G.N) {
		out, err := sess.StepRound(plan)
		if err != nil {
			t.Fatal(err)
		}
		if out.Skipped {
			t.Fatalf("round %d skipped", r)
		}
		losses = append(losses, out.Loss)
		stale += out.StaleApplied
		expired += out.ExpiredParts
	}
	return losses, stale, expired
}

// goldenSparseRounds is runSparseRounds' loss trace on roundSession(t, 41),
// recorded on the parent commit (a98d5d6: dense N×OutDim partials combined
// with AddN).
var goldenSparseRounds = []float64{
	0x1.69becaeb96947p-01, 0x1.5c730319a9c9ep-01, 0x1.4de046172a94fp-01,
	0x1.4968fc7a0e3f2p-01, 0x1.409accebd07ccp-01, 0x1.378a43c1a594cp-01,
}

// TestSparsePartialsMatchDenseOracle pins the leaf-row combine to the dense
// one it replaced, bit for bit: the evaluation forward against the oracle
// rebuilt from leafVertex/poolCoef, for one shard, a few, and one per
// device, at fresh and at trained weights; and a partial-participation +
// expiry + delayed-gradient round sequence against the parent commit's loss
// trace. The oracle reads the first-layer input the engine reads; the round
// sequence runs on the dense input (engine.denseInput) its trace was
// recorded with.
func TestSparsePartialsMatchDenseOracle(t *testing.T) {
	g := engineGraph(t, 41)
	for _, shards := range []int{1, 5, g.N} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			sys, split := supervisedSystem(t, g, Config{
				Epochs: 2, MCMCIterations: 10, Shards: shards, Workers: workers, Seed: 41,
			})
			requireBitIdentical(t, name+"/fresh", sys.eng.forward().Data, denseOracleForward(sys.eng))
			if _, err := sys.TrainSupervised(split); err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, name+"/trained", sys.eng.forward().Data, denseOracleForward(sys.eng))
		}
	}

	for _, workers := range []int{1, 4} {
		sys, _, sess := roundSession(t, 41)
		sys.eng.workers = workers
		sys.eng.denseInput = true
		losses, stale, expired := runSparseRounds(t, sys, sess)
		if stale == 0 || expired == 0 {
			t.Fatalf("schedule applied %d stale gradients and expired %d caches; want both > 0", stale, expired)
		}
		requireIdentical(t, fmt.Sprintf("sparse rounds, workers=%d, vs parent-commit golden", workers), losses, goldenSparseRounds)
	}
}

// TestRoundMemoryIsLeafSized: what a round keeps per shard is sized by the
// shard's own leaves, not by the vertex count — every pooled partial and
// every stale-partial cache entry has exactly len(verts) rows, including the
// entries that expired (kept for the next copy).
func TestRoundMemoryIsLeafSized(t *testing.T) {
	sys, _, sess := roundSession(t, 41)
	if _, _, expired := runSparseRounds(t, sys, sess); expired == 0 {
		t.Fatal("no cache expired")
	}
	e := sys.eng
	sumK, cached := 0, 0
	for i, p := range e.forwardActive(false, nil) {
		k := len(e.shards[i].verts)
		sumK += k
		if p.Data.Rows() != k {
			t.Fatalf("shard %d partial has %d rows, want %d", i, p.Data.Rows(), k)
		}
		if e.lastParts[i] == nil {
			t.Fatalf("shard %d computed in round 0 but has no cache entry", i)
		}
		if e.lastParts[i].Rows() != k {
			t.Fatalf("shard %d cache has %d rows, want %d", i, e.lastParts[i].Rows(), k)
		}
		cached += e.lastParts[i].Rows()
	}
	if cached != sumK {
		t.Fatalf("cache holds %d rows, want Σ K_s = %d", cached, sumK)
	}
	if dense := len(e.shards) * sys.G.N; sumK*4 > dense {
		t.Fatalf("Σ K_s = %d is not small against shards·N = %d", sumK, dense)
	}
}
