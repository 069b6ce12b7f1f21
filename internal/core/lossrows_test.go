package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/nn"
)

// The supervised objective's steps combine only the pooled rows its loss
// reads. The oracle here is the combine it replaced: every one of the N
// rows summed, and the cross-entropy taken over all of them with weight 1 on
// the present training vertices and 0 elsewhere.

// oracleRound steps e the way Session.StepRound does, but through the dense
// combine: stepRound with rows nil and a weighted CE over all N rows.
func oracleRound(e *engine, split *graph.NodeSplit, plan RoundPlan) (float64, roundReport, bool) {
	s := e.sys
	weights := make([]float64, s.G.N)
	usable := false
	for _, v := range split.Train {
		if plan.Active == nil || plan.Active[v] {
			weights[v], usable = 1, true
		}
	}
	if !usable {
		return 0, roundReport{staleApplied: e.skipRound()}, false
	}
	sa, sd := e.mapDevices(plan.Active, plan.Delays)
	loss, rep := e.stepRound(sa, sd, plan.TTL, nil, func(pooled *autodiff.Value) *autodiff.Value {
		return autodiff.SoftmaxCrossEntropy(s.Head.Forward(pooled), s.G.Labels, weights)
	})
	return loss, rep, true
}

// idleShardCase finds a shard b and a vertex t outside every tree of b, in
// a shard of at least three devices when shards are that large: a round
// with all of b's devices and t present, where only t trains, keeps b fresh
// while b holds no loss row, and leaves t's own shard absent when a lone
// device cannot activate it.
func idleShardCase(e *engine) (b, t int, ok bool) {
	for b, sh := range e.shards {
		for t := 0; t < e.sys.G.N; t++ {
			if _, held := slices.BinarySearch(sh.verts, t); held {
				continue
			}
			for _, a := range e.shards {
				if a.lo <= t && t < a.hi && (a.hi-a.lo >= 3 || a.hi-a.lo == 1) {
					return b, t, true
				}
			}
		}
	}
	return 0, 0, false
}

// lossRowsSplit trains every even vertex plus t, except shard b's devices.
func lossRowsSplit(n int, sh *shard, t int) *graph.NodeSplit {
	split := &graph.NodeSplit{IsTrain: make([]bool, n), IsVal: make([]bool, n), IsTest: make([]bool, n)}
	for v := 0; v < n; v++ {
		switch {
		case v == t || (v%2 == 0 && (v < sh.lo || v >= sh.hi)):
			split.Train = append(split.Train, v)
			split.IsTrain[v] = true
		default:
			split.Test = append(split.Test, v)
			split.IsTest[v] = true
		}
	}
	// A scrambled order: the objective must sort its rows itself.
	rand.New(rand.NewSource(3)).Shuffle(len(split.Train), func(i, j int) {
		split.Train[i], split.Train[j] = split.Train[j], split.Train[i]
	})
	return split
}

// lossRowsPlans is the eight-round schedule: full participation (the nil
// mask, then everyone), two ~60 % rounds with delayed gradients and a TTL of
// one (so caches serve, then expire), three one-device rounds (the last with
// a delayed gradient), and round 6, where shard b's devices and t are
// present but only t trains.
func lossRowsPlans(n int, split *graph.NodeSplit, sh *shard, t int) []RoundPlan {
	rng := rand.New(rand.NewSource(5))
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	plans := []RoundPlan{{TTL: 2}, {Active: all, TTL: 2}}
	for r := 0; r < 2; r++ {
		active, delays := make([]bool, n), make([]int, n)
		for v := range active {
			active[v] = rng.Float64() < 0.6
			if active[v] && rng.Float64() < 0.3 {
				delays[v] = 1 + rng.Intn(2)
			}
		}
		plans = append(plans, RoundPlan{Active: active, Delays: delays, TTL: 1})
	}
	solo := func(v, delay int) RoundPlan {
		active, delays := make([]bool, n), make([]int, n)
		active[v], delays[v] = true, delay
		return RoundPlan{Active: active, Delays: delays, TTL: 2 * n}
	}
	trains := slices.Sorted(slices.Values(split.Train))
	plans = append(plans, solo(trains[0], 0), solo(trains[len(trains)/2], 0))
	idle := make([]bool, n)
	for v := sh.lo; v < sh.hi; v++ {
		idle[v] = true
	}
	idle[t] = true
	plans = append(plans, RoundPlan{Active: idle, TTL: 2 * n}, solo(trains[len(trains)-1], 1))
	return plans
}

// TestLossRowsMatchDenseCombine: sessions whose steps combine only the loss
// rows reproduce the dense combine's loss trace, final weights and Adam
// moments bit for bit, at one shard, a few, and one per device, on one
// worker and four. Round 6 keeps a fresh shard that holds no loss row; it
// must stay a term, so its cut still gets a (zero) gradient and Adam still
// steps the encoder — at five shards it is the only fresh shard, so the
// encoder's whole update rides on that term.
func TestLossRowsMatchDenseCombine(t *testing.T) {
	g := engineGraph(t, 51)
	for _, shards := range []int{1, 5, g.N} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			cfg := Config{Task: Supervised, MCMCIterations: 10, Shards: shards, Workers: workers, Seed: 51}
			sys, err := NewSystem(g, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewSystem(g, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// With one shard, every vertex is held by it: round 6 is then
			// a one-device round.
			idle, b, tv := &shard{}, -1, 0
			if bi, ti, found := idleShardCase(sys.eng); found {
				idle, b, tv = sys.eng.shards[bi], bi, ti
			} else if shards > 1 {
				t.Fatalf("%s: no shard misses a vertex", name)
			}
			split := lossRowsSplit(g.N, idle, tv)
			sess, err := sys.NewSession(NewSupervisedObjective(split))
			if err != nil {
				t.Fatal(err)
			}
			var expired, stale int
			for r, plan := range lossRowsPlans(g.N, split, idle, tv) {
				encBefore := nn.Snapshot(sys.Encoder)
				out, err := sess.StepRound(plan)
				if err != nil {
					t.Fatal(err)
				}
				want, rep, usable := oracleRound(oracle.eng, split, plan)
				if out.Skipped == usable {
					t.Fatalf("%s round %d: skipped=%v, oracle usable=%v", name, r, out.Skipped, usable)
				}
				if out.Loss != want || out.ExpiredParts != rep.expiredParts || out.StaleApplied != rep.staleApplied {
					t.Fatalf("%s round %d: (loss %x, expired %d, stale %d), oracle (%x, %d, %d)",
						name, r, out.Loss, out.ExpiredParts, out.StaleApplied, want, rep.expiredParts, rep.staleApplied)
				}
				expired += out.ExpiredParts
				stale += out.StaleApplied
				if r != 6 || b < 0 {
					continue
				}
				if sys.eng.cuts[b] == nil || len(sys.eng.dstSlots[b]) > 0 {
					t.Fatalf("%s round 6: shard %d is not fresh without loss rows", name, b)
				}
				fresh := 0
				for _, c := range sys.eng.cuts {
					if c != nil {
						fresh++
					}
				}
				if shards == 5 && fresh != 1 {
					t.Fatalf("%s round 6: %d fresh shards, want only the idle one", name, fresh)
				}
				for i, w := range nn.Snapshot(sys.Encoder) {
					if slices.Equal(w.Data(), encBefore[i].Data()) {
						t.Fatalf("%s round 6: encoder tensor %d did not move", name, i)
					}
				}
			}
			if shards == g.N && (expired == 0 || stale == 0) {
				t.Fatalf("%s: %d caches expired and %d stale gradients applied; want both > 0", name, expired, stale)
			}
			if got, want := sys.NewReplica().Fingerprint(), oracle.NewReplica().Fingerprint(); got != want {
				t.Fatalf("%s: weights or Adam state differ from the dense oracle (%#x vs %#x)", name, got, want)
			}
		}
	}
}

// TestGossipSoloStepReadsNeighbourPartials pins what a gossip device's
// local step reads. Its loss row is its own vertex d, so the step combines
// exactly holders[d] whose shard is fresh or serves a live cache — d's own
// partial, and the partials its graph neighbours last pushed — each
// contributing its row for d into the single pooled slot; a neighbour whose
// cache expired is left out.
func TestGossipSoloStepReadsNeighbourPartials(t *testing.T) {
	sys, split, sess := roundSession(t, 53)
	e, n := sys.eng, sys.G.N
	var d, gone int = -1, -1
	for _, v := range slices.Sorted(slices.Values(split.Train)) {
		if len(e.holders[v]) >= 3 {
			d = v
			break
		}
	}
	if d < 0 {
		t.Fatal("no training vertex with two neighbour holders")
	}
	for _, h := range e.holders[d] {
		if h.shard != d {
			gone = h.shard
			break
		}
	}
	// Round 0: everyone computes (every cache live). Round 1: everyone but
	// gone, whose cache ages to 1. Round 2, TTL 1: d alone — gone's cache
	// has expired, every other device's still serves.
	all, most, solo := make([]bool, n), make([]bool, n), make([]bool, n)
	for v := range all {
		all[v], most[v] = true, v != gone
	}
	solo[d] = true
	for _, plan := range []RoundPlan{{Active: all, TTL: 1}, {Active: most, TTL: 1}, {Active: solo, TTL: 1}} {
		if _, err := sess.StepRound(plan); err != nil {
			t.Fatal(err)
		}
	}
	var want []holder
	for _, h := range e.holders[d] {
		// A holder of d other than d is a device whose tree has a leaf for
		// d: a graph neighbour that retained it.
		if h.shard != d && !slices.Contains(sys.Trees[h.shard].Retained, d) {
			t.Fatalf("holder %d of vertex %d does not retain it", h.shard, d)
		}
		if h.shard != gone {
			want = append(want, h)
		}
	}
	if len(e.terms) != len(want) {
		t.Fatalf("step combined %d terms, want %d (holders of %d with a live cache)", len(e.terms), len(want), d)
	}
	for k, h := range want {
		term := e.terms[k]
		switch {
		case h.shard == d && term != e.cuts[d]:
			t.Fatalf("term %d is not device %d's fresh partial", k, d)
		case h.shard != d && term.Data != e.lastParts[h.shard]:
			t.Fatalf("term %d is not device %d's cached partial", k, h.shard)
		}
		if !slices.Equal(e.termSrc[k], []int{h.row}) || !slices.Equal(e.termDst[k], []int{0}) {
			t.Fatalf("term %d reads rows %v into slots %v, want [%d] into [0]", k, e.termSrc[k], e.termDst[k], h.row)
		}
	}
}
