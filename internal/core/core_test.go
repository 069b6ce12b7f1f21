package core

import (
	"math"
	"math/rand"
	"testing"

	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/tree"
)

func testGraph(t *testing.T, n, m, classes int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "core", N: n, M: m, Classes: classes, FeatureDim: 16,
		Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Hidden != 16 || cfg.Heads != 4 {
		t.Fatalf("model defaults wrong: %+v", cfg)
	}
	if cfg.Epsilon != 2 || cfg.LearningRate != 0.01 || cfg.Epochs != 300 {
		t.Fatalf("training defaults wrong: %+v", cfg)
	}
	if cfg.EvalEvery != 5 {
		t.Fatalf("aux defaults wrong: %+v", cfg)
	}
	// A default system trains the paper's model, the one the baselines
	// build from too.
	g := testGraph(t, 40, 160, 3, 1)
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		sys, err := NewSystem(g, g, Config{Backbone: bb, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := nn.PaperGNN(bb, g.FeatureDim()); sys.Encoder.Cfg != want {
			t.Fatalf("%v encoder %+v, want %+v", bb, sys.Encoder.Cfg, want)
		}
		if sys.opt.LR != nn.PaperLearningRate || sys.opt.WeightDecay != nn.PaperWeightDecay {
			t.Fatalf("%v Adam lr %v decay %v", bb, sys.opt.LR, sys.opt.WeightDecay)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Epsilon: -1},
		{LearningRate: -0.1},
		{Epochs: -5},
		{MCMCIterations: -1},
		{EvalEvery: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d should fail validation: %+v", i, cfg)
		}
	}
}

func TestTaskString(t *testing.T) {
	if Supervised.String() != "supervised" || Unsupervised.String() != "unsupervised" {
		t.Fatal("task names wrong")
	}
}

func TestNewSystemInvariants(t *testing.T) {
	g := testGraph(t, 90, 400, 3, 1)
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Backbone: nn.GCN, Epochs: 5, MCMCIterations: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Trees) != g.N || len(sys.Devices) != g.N {
		t.Fatal("one tree and one device per vertex required")
	}
	for v, tr := range sys.Trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d invalid: %v", v, err)
		}
		if tr.Center != v {
			t.Fatalf("tree %d centered at %d", v, tr.Center)
		}
	}
	// Forest dimensions: Σ nodes with offsets strictly increasing.
	total := 0
	for v, tr := range sys.Trees {
		if sys.Forest.Offsets[v] != total {
			t.Fatalf("offset[%d] = %d, want %d", v, sys.Forest.Offsets[v], total)
		}
		total += tr.NumNodes
	}
	if sys.Forest.NumNodes != total || sys.Forest.X.Rows() != total {
		t.Fatal("forest size mismatch")
	}
	// POOL coefficients per vertex sum to 1 (average pooling).
	sums := make([]float64, g.N)
	for i, gv := range sys.Forest.LeafVertex {
		sums[gv] += sys.Forest.PoolCoef[i]
	}
	for v, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("pool coefficients for %d sum to %v", v, s)
		}
	}
	// Covering constraint via trees: every edge in at least one tree.
	retained := make([]map[int]bool, g.N)
	for v, tr := range sys.Trees {
		retained[v] = map[int]bool{}
		for _, u := range tr.Retained {
			retained[v][u] = true
		}
	}
	for _, e := range g.Edges {
		if !retained[e[0]][e[1]] && !retained[e[1]][e[0]] {
			t.Fatalf("edge %v not covered by any tree", e)
		}
	}
	// LDP feature exchange recorded on the network.
	if sys.Net.Snapshot().Messages[fed.MsgFeature] == 0 {
		t.Fatal("no feature messages accounted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	g := testGraph(t, 60, 200, 2, 2)
	if _, err := NewSystem(nil, g, Config{}); err == nil {
		t.Fatal("nil graph must error")
	}
	small := testGraph(t, 61, 200, 2, 2)
	if _, err := NewSystem(g, small, Config{}); err == nil {
		t.Fatal("vertex count mismatch must error")
	}
	if _, err := NewSystem(g, g, Config{Epochs: -1}); err == nil {
		t.Fatal("invalid config must error")
	}
	// Featureless graph cannot build a forest.
	bare, err := graph.NewFromEdges(10, [][2]int{{0, 1}, {1, 2}}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(bare, bare, Config{Task: Supervised, MCMCIterations: 0}); err == nil {
		t.Fatal("featureless graph must error")
	}
}

func TestSupervisedTrainsAndImproves(t *testing.T) {
	g := testGraph(t, 120, 600, 2, 3)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Backbone: nn.GCN, Epochs: 30, MCMCIterations: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.TrainSupervised(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Losses) != 30 {
		t.Fatalf("loss trace %d entries", len(stats.Losses))
	}
	if stats.Losses[29] >= stats.Losses[0] {
		t.Fatalf("loss did not improve: %v -> %v", stats.Losses[0], stats.Losses[29])
	}
	acc, err := sys.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 { // 2 balanced classes: random = 0.5
		t.Fatalf("accuracy %v barely above chance", acc)
	}
	if stats.AvgCommRoundsPerDevice <= 0 || stats.SimEpochTime <= 0 {
		t.Fatal("system-cost stats missing")
	}
	if len(stats.EpochTraffic) != 30 {
		t.Fatal("per-epoch traffic missing")
	}
	// Every epoch sends embeddings, losses, and gradients.
	tr := stats.EpochTraffic[0]
	if tr.Messages[fed.MsgEmbedding] == 0 || tr.Messages[fed.MsgLoss] != g.N || tr.Messages[fed.MsgGradient] != g.N {
		t.Fatalf("epoch traffic wrong: %v", tr.Messages)
	}
}

func TestSupervisedWrongTaskErrors(t *testing.T) {
	g := testGraph(t, 60, 200, 2, 4)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(4)))
	sys, err := NewSystem(g, g, Config{Task: Unsupervised, Epochs: 1, MCMCIterations: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainSupervised(split); err == nil {
		t.Fatal("supervised training on unsupervised system must error")
	}
	if _, err := sys.EvaluateAccuracy(split.IsTest); err == nil {
		t.Fatal("accuracy evaluation without a head must error")
	}
}

func TestUnsupervisedTrainsAndRanks(t *testing.T) {
	g := testGraph(t, 150, 900, 2, 5)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(es.TrainGraph, g, Config{
		Task: Unsupervised, Backbone: nn.GCN, Epochs: 30, MCMCIterations: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.TrainUnsupervised(es)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Losses[len(stats.Losses)-1] >= stats.Losses[0] {
		t.Fatal("unsupervised loss did not improve")
	}
	auc, err := sys.EvaluateAUC(es.Test, es.TestNeg)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.6 {
		t.Fatalf("AUC %v barely above chance", auc)
	}
	// Unsupervised epochs additionally move pooled and negative-sample
	// embeddings.
	tr := stats.EpochTraffic[0]
	if tr.Messages[fed.MsgPooled] == 0 || tr.Messages[fed.MsgNegSample] == 0 {
		t.Fatalf("unsupervised traffic wrong: %v", tr.Messages)
	}
}

func TestAblationDisableVirtualNodes(t *testing.T) {
	g := testGraph(t, 80, 300, 2, 6)
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Epochs: 1, MCMCIterations: 10,
		DisableVirtualNodes: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sys.Trees {
		for _, k := range tr.Kind {
			if k == tree.Root || k == tree.Parent {
				t.Fatal("w.o.-VN system contains virtual nodes")
			}
		}
	}
}

func TestAblationDisableTreeTrimming(t *testing.T) {
	g := testGraph(t, 80, 300, 2, 7)
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Epochs: 1, MCMCIterations: 10,
		DisableTreeTrimming: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range sys.Workloads() {
		if w != g.Degree(v) {
			t.Fatalf("w.o.-TT workload %d != degree %d", w, g.Degree(v))
		}
	}
	// With trimming the max workload must be strictly smaller.
	trimmed, err := NewSystem(g, g, Config{
		Task: Supervised, Epochs: 1, MCMCIterations: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Balanced.MaxWorkload() >= sys.Balanced.MaxWorkload() {
		t.Fatalf("trimming did not reduce max workload: %d vs %d",
			trimmed.Balanced.MaxWorkload(), sys.Balanced.MaxWorkload())
	}
}

func TestDeterministicTraining(t *testing.T) {
	g := testGraph(t, 70, 250, 2, 8)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(8)))
	run := func() []float64 {
		sys, err := NewSystem(g, g, Config{
			Task: Supervised, Epochs: 8, MCMCIterations: 20, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sys.TrainSupervised(split)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d loss differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmbeddingsShapeAndFiniteness(t *testing.T) {
	g := testGraph(t, 60, 200, 2, 9)
	sys, err := NewSystem(g, g, Config{Task: Supervised, Epochs: 1, MCMCIterations: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	emb := sys.Embeddings()
	if emb.Rows() != g.N || emb.Cols() != 16 {
		t.Fatalf("embeddings %dx%d", emb.Rows(), emb.Cols())
	}
	for _, v := range emb.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite embedding")
		}
	}
}

func TestEpsilonAffectsNoise(t *testing.T) {
	// Larger ε must put the recovered neighbor features closer to the
	// truth. Compare mean absolute deviation of neighbor-leaf rows without
	// row normalization (which would mask the scale).
	g := testGraph(t, 60, 240, 2, 10)
	dev := func(eps float64) float64 {
		sys, err := NewSystem(g, g, Config{
			Task: Supervised, Epochs: 1, MCMCIterations: 0,
			Epsilon: eps, DisableRowNorm: true, Seed: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		total, count := 0.0, 0
		for i, r := range sys.Forest.LeafRows {
			gv := sys.Forest.LeafVertex[i]
			row := sys.Forest.X.Row(r)
			truth := g.Features.Row(gv)
			for j := range row {
				total += math.Abs(row[j] - truth[j])
				count++
			}
		}
		return total / float64(count)
	}
	noisy, clean := dev(0.5), dev(64)
	if clean >= noisy {
		t.Fatalf("eps=64 deviation %v not below eps=0.5 deviation %v", clean, noisy)
	}
}

func TestGATBackboneRuns(t *testing.T) {
	g := testGraph(t, 60, 200, 2, 11)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(11)))
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Backbone: nn.GAT, Epochs: 3, MCMCIterations: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainSupervised(split); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EvaluateAccuracy(split.IsTest); err != nil {
		t.Fatal(err)
	}
}

func TestSecureCompareEndToEnd(t *testing.T) {
	g := testGraph(t, 50, 150, 2, 12)
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, Epochs: 1, MCMCIterations: 15, SecureCompare: true, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Balanced.SMC.OTs == 0 {
		t.Fatal("secure mode ran no OTs")
	}
	if sys.Net.Snapshot().Messages[fed.MsgSecure] == 0 {
		t.Fatal("secure traffic not absorbed into the network")
	}
}
