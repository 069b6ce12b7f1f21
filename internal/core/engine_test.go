package core

import (
	"math/rand"
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

// TestAsyncSchedulingDeterminism checks that staleness-bounded async runs
// are exactly as reproducible as sync ones, across worker counts.
func TestAsyncSchedulingDeterminism(t *testing.T) {
	g := engineGraph(t, 11)
	base := Config{Epochs: 6, MCMCIterations: 20, Sched: SchedAsync, Staleness: 2, Seed: 11}
	w1 := base
	w1.Workers = 1
	w8 := base
	w8.Workers = 8
	a := supervisedLosses(t, g, w1)
	b := supervisedLosses(t, g, w8)
	requireIdentical(t, "async workers 1 vs 8", a, b)
	requireIdentical(t, "async repeat run", a, supervisedLosses(t, g, w1))
}

// TestAsyncDiffersFromSync guards against the async path silently being a
// no-op: delaying straggler gradients must actually change the trajectory.
func TestAsyncDiffersFromSync(t *testing.T) {
	g := engineGraph(t, 12)
	sync := Config{Epochs: 6, MCMCIterations: 20, Seed: 12}
	async := Config{Epochs: 6, MCMCIterations: 20, Sched: SchedAsync, Staleness: 3, Seed: 12}
	a, b := supervisedLosses(t, g, sync), supervisedLosses(t, g, async)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("async scheduling produced an identical trajectory to sync")
	}
}

// TestAsyncReducesSimEpochTime checks the cost-model side of the scheduler
// knob: on a straggler-heavy graph, bounded staleness must lower the
// simulated epoch time.
func TestAsyncReducesSimEpochTime(t *testing.T) {
	g := engineGraph(t, 13)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) *TrainStats {
		cfg.Task = Supervised
		// Skip trimming so the workload distribution keeps its raw power-law
		// straggler, which async scheduling then amortizes.
		cfg.DisableTreeTrimming = true
		sys, err := NewSystem(g, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sys.TrainSupervised(split)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	syncStats := run(Config{Epochs: 2, Seed: 13})
	asyncStats := run(Config{Epochs: 2, Sched: SchedAsync, Staleness: 4, Seed: 13})
	if asyncStats.SimEpochTime >= syncStats.SimEpochTime {
		t.Fatalf("async epoch time %v not below sync %v", asyncStats.SimEpochTime, syncStats.SimEpochTime)
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

// TestShardDelaysRanking checks the deterministic straggler schedule: the
// heaviest shard carries the full staleness bound, descending to zero.
func TestShardDelaysRanking(t *testing.T) {
	shards := []*shard{{work: 5}, {work: 40}, {work: 12}, {work: 40}}
	delays := shardDelays(shards, 2)
	// Ranking by (work desc, index asc): 1, 3, 2, 0.
	want := []int{0, 2, 0, 1}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
	for _, d := range shardDelays(shards, 0) {
		if d != 0 {
			t.Fatal("sync delays must all be zero")
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
