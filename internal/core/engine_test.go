package core

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
)

// engineGraph builds a small power-law graph shared by the engine tests.
func engineGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "engine", N: 120, M: 640, Classes: 2, FeatureDim: 12,
		PowerLaw: 2.2, Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// supervisedSystem builds a fresh supervised system over g and the node split
// the loss-trace helpers train it on.
func supervisedSystem(t testing.TB, g *graph.Graph, cfg Config) (*System, *graph.NodeSplit) {
	t.Helper()
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Task = Supervised
	sys, err := NewSystem(g, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, split
}

// supervisedLosses trains a fresh supervised system and returns its losses.
func supervisedLosses(t testing.TB, g *graph.Graph, cfg Config) []float64 {
	t.Helper()
	sys, split := supervisedSystem(t, g, cfg)
	stats, err := sys.TrainSupervised(split)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Losses
}

// unsupervisedSystem builds a fresh link-prediction system over g's training
// subgraph and the edge split the loss-trace helpers train it on.
func unsupervisedSystem(t testing.TB, g *graph.Graph, cfg Config) (*System, *graph.EdgeSplit) {
	t.Helper()
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Task = Unsupervised
	sys, err := NewSystem(es.TrainGraph, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, es
}

// unsupervisedLosses trains a fresh link-prediction system and returns its
// losses.
func unsupervisedLosses(t testing.TB, g *graph.Graph, cfg Config) []float64 {
	t.Helper()
	sys, es := unsupervisedSystem(t, g, cfg)
	stats, err := sys.TrainUnsupervised(es)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Losses
}

func requireIdentical(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: loss traces differ in length: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: losses diverge at epoch %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestWorkerCountInvariance is the engine's golden determinism guarantee:
// with a fixed seed, Workers=1 and Workers=8 produce bit-identical loss
// traces — and so do two consecutive runs of the same setting — for both
// the supervised and the unsupervised trainer, under both backbones.
func TestWorkerCountInvariance(t *testing.T) {
	g := engineGraph(t, 9)
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		base := Config{Backbone: bb, Epochs: 6, MCMCIterations: 20, Seed: 9}

		w1 := base
		w1.Workers = 1
		w8 := base
		w8.Workers = 8

		sup1 := supervisedLosses(t, g, w1)
		sup8 := supervisedLosses(t, g, w8)
		requireIdentical(t, bb.String()+"/supervised workers 1 vs 8", sup1, sup8)
		requireIdentical(t, bb.String()+"/supervised repeat run", sup1, supervisedLosses(t, g, w1))

		uns1 := unsupervisedLosses(t, g, w1)
		uns8 := unsupervisedLosses(t, g, w8)
		requireIdentical(t, bb.String()+"/unsupervised workers 1 vs 8", uns1, uns8)
		requireIdentical(t, bb.String()+"/unsupervised repeat run", uns1, unsupervisedLosses(t, g, w8))

		if sup1[len(sup1)-1] >= sup1[0] {
			t.Fatalf("%s: supervised loss did not improve: %v -> %v", bb, sup1[0], sup1[len(sup1)-1])
		}
	}
}

// TestConcurrentSystemsTrainIndependently: a GCN and a GAT system built and
// trained at the same time on two goroutines produce exactly the loss traces
// each produces alone. Systems share no mutable state — there is no
// process-wide compute setting one could flip under the other — and
// scripts/ci.sh runs this under -race -count=10.
func TestConcurrentSystemsTrainIndependently(t *testing.T) {
	g := engineGraph(t, 9)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Task: Supervised, Backbone: nn.GCN, Epochs: 4, MCMCIterations: 20, Workers: 2, Seed: 9},
		{Task: Supervised, Backbone: nn.GAT, Epochs: 4, MCMCIterations: 20, Workers: 2, Seed: 9},
	}
	train := func(cfg Config) ([]float64, error) {
		sys, err := NewSystem(g, g, cfg)
		if err != nil {
			return nil, err
		}
		stats, err := sys.TrainSupervised(split)
		if err != nil {
			return nil, err
		}
		return stats.Losses, nil
	}

	alone := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		if alone[i], err = train(cfg); err != nil {
			t.Fatal(err)
		}
	}
	together := make([][]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = train(cfg)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireIdentical(t, cfg.Backbone.String()+" alone vs concurrent", alone[i], together[i])
	}
}

// asyncRoundLosses steps a fresh supervised system built from cfg through
// plans with StepRound, as the simulator drives an async system, and
// returns the round losses and the number of delayed gradients applied.
// fresh drops the engine's tapes before every round.
func asyncRoundLosses(t *testing.T, g *graph.Graph, cfg Config, plans []RoundPlan, fresh bool) ([]float64, int) {
	t.Helper()
	sys, split := supervisedSystem(t, g, cfg)
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	stale := 0
	for r, plan := range plans {
		if fresh {
			dropTapes(sys)
		}
		out, err := sess.StepRound(plan)
		if err != nil {
			t.Fatal(err)
		}
		if out.Skipped {
			t.Fatalf("round %d skipped", r)
		}
		losses = append(losses, out.Loss)
		stale += out.StaleApplied
	}
	sess.FinishRounds()
	return losses, stale
}

// TestAsyncSchedulingDeterminism checks that rounds with delayed gradients
// are exactly as reproducible as sync ones, across worker counts.
func TestAsyncSchedulingDeterminism(t *testing.T) {
	g := engineGraph(t, 11)
	base := Config{MCMCIterations: 20, Sched: SchedAsync, Staleness: 2, Seed: 11}
	w1 := base
	w1.Workers = 1
	w8 := base
	w8.Workers = 8
	a, _ := asyncRoundLosses(t, g, w1, sparseRoundPlans(g.N), false)
	b, _ := asyncRoundLosses(t, g, w8, sparseRoundPlans(g.N), false)
	requireIdentical(t, "async workers 1 vs 8", a, b)
	c, _ := asyncRoundLosses(t, g, w1, sparseRoundPlans(g.N), false)
	requireIdentical(t, "async repeat run", a, c)
}

// TestAsyncDiffersFromSync guards against the delayed-gradient queue
// silently being a no-op: the same rounds with their delays must change the
// trajectory.
func TestAsyncDiffersFromSync(t *testing.T) {
	g := engineGraph(t, 12)
	cfg := Config{MCMCIterations: 20, Sched: SchedAsync, Staleness: 2, Seed: 12}
	async := sparseRoundPlans(g.N)
	sync := sparseRoundPlans(g.N)
	for r := range sync {
		sync[r].Delays = nil
	}
	a, stale := asyncRoundLosses(t, g, cfg, async, false)
	b, _ := asyncRoundLosses(t, g, cfg, sync, false)
	if stale == 0 {
		t.Fatal("no delayed gradient was applied")
	}
	if slices.Equal(a, b) {
		t.Fatal("delayed gradients produced an identical trajectory to immediate ones")
	}
}

// TestNilDelaysApplyNow: a round whose plan has no delays applies every
// gradient at once, whatever the system's Sched, so StepRound(RoundPlan{})
// on an async system traces Step on the same system under SchedSync. Step
// itself trains sync epochs only: an async or gossip system's epoch trainer
// refuses, naming internal/sim, instead of silently training in lockstep.
func TestNilDelaysApplyNow(t *testing.T) {
	g := engineGraph(t, 13)
	cfg := Config{Epochs: 6, MCMCIterations: 20, Seed: 13}
	want := supervisedLosses(t, g, cfg)
	async := cfg
	async.Sched, async.Staleness = SchedAsync, 2
	got, _ := asyncRoundLosses(t, g, async, make([]RoundPlan, cfg.Epochs), false)
	requireIdentical(t, "async StepRound(RoundPlan{}) vs sync Step", want, got)

	for _, sched := range []Sched{SchedAsync, SchedGossip} {
		c := cfg
		c.Sched = sched
		sys, split := supervisedSystem(t, g, c)
		_, err := sys.TrainSupervised(split)
		if err == nil || !strings.Contains(err.Error(), "internal/sim") {
			t.Errorf("%v: TrainSupervised returned %v, want a refusal naming internal/sim", sched, err)
		}
	}
}

// TestShardPartitionInvariants checks the structural contract of
// buildShards: shards are contiguous, cover every device exactly once, own
// every forest leaf exactly once, the partition never depends on the
// worker count, and each shard's partial rows (verts, strictly ascending)
// are exactly the vertices its leaves stand for, with every pooling edge
// landing on its own vertex's row.
func TestShardPartitionInvariants(t *testing.T) {
	g := engineGraph(t, 14)
	for _, shardsCfg := range []int{0, 1, 5, 1000} {
		sys, err := NewSystem(g, g, Config{
			Task: Supervised, Epochs: 1, MCMCIterations: 10, Shards: shardsCfg, Seed: 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		shards := sys.eng.shards
		want := shardsCfg
		if want == 0 {
			want = DefaultShards
		}
		if want > g.N {
			want = g.N
		}
		if len(shards) != want {
			t.Fatalf("Shards=%d: got %d shards, want %d", shardsCfg, len(shards), want)
		}
		dev, leaves, nodes := 0, 0, 0
		for i, sh := range shards {
			if sh.lo != dev {
				t.Fatalf("shard %d starts at device %d, want %d", i, sh.lo, dev)
			}
			if sh.hi <= sh.lo {
				t.Fatalf("shard %d empty: [%d,%d)", i, sh.lo, sh.hi)
			}
			if len(sh.leafLocal) == 0 {
				t.Fatalf("shard %d has no leaves", i)
			}
			for j, r := range sh.leafLocal {
				if r < 0 || r >= sh.x.Rows() {
					t.Fatalf("shard %d leaf row %d outside [0,%d)", i, r, sh.x.Rows())
				}
				v := sh.leafVertex[j]
				if v < sh.lo || v >= sh.hi {
					// Leaves may represent neighbors outside the shard's
					// device range; only the owning tree must be inside.
					if v < 0 || v >= g.N {
						t.Fatalf("shard %d leaf vertex %d out of range", i, v)
					}
				}
			}
			for k := 1; k < len(sh.verts); k++ {
				if sh.verts[k] <= sh.verts[k-1] {
					t.Fatalf("shard %d verts not strictly ascending at %d: %v", i, k, sh.verts)
				}
			}
			if sh.pool.NSeg != len(sh.verts) || sh.pool.NumEdges() != len(sh.leafVertex) {
				t.Fatalf("shard %d pool has %d segments over %d edges, want %d over %d",
					i, sh.pool.NSeg, sh.pool.NumEdges(), len(sh.verts), len(sh.leafVertex))
			}
			named := make(map[int]bool)
			for j, v := range sh.leafVertex {
				slot := sh.pool.Dst[j]
				if slot < 0 || slot >= len(sh.verts) {
					t.Fatalf("shard %d leaf %d pools into slot %d outside [0,%d)", i, j, slot, len(sh.verts))
				}
				if sh.verts[slot] != v {
					t.Fatalf("shard %d leaf %d of vertex %d pools into the row of vertex %d", i, j, v, sh.verts[slot])
				}
				named[v] = true
			}
			if len(named) != len(sh.verts) {
				t.Fatalf("shard %d has %d partial rows for %d distinct leaf vertices", i, len(sh.verts), len(named))
			}
			dev = sh.hi
			leaves += len(sh.leafLocal)
			nodes += sh.x.Rows()
		}
		if dev != g.N {
			t.Fatalf("shards cover %d devices, want %d", dev, g.N)
		}
		if leaves != len(sys.Forest.LeafRows) {
			t.Fatalf("shards own %d leaves, forest has %d", leaves, len(sys.Forest.LeafRows))
		}
		if nodes != sys.Forest.NumNodes {
			t.Fatalf("shards hold %d nodes, forest has %d", nodes, sys.Forest.NumNodes)
		}
	}
}

// TestStalenessRequiresAsync checks the config guard.
func TestStalenessRequiresAsync(t *testing.T) {
	cfg := Config{Staleness: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Staleness without SchedAsync validated")
	}
	cfg = Config{Sched: SchedAsync}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Staleness != 1 {
		t.Fatalf("async default staleness = %d, want 1", cfg.Staleness)
	}
	if cfg.Workers <= 0 {
		t.Fatalf("default Workers = %d, want NumCPU", cfg.Workers)
	}
}
