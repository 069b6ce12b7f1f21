package baselines

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

func blGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "bl", N: 140, M: 700, Classes: 2, FeatureDim: 16,
		Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModelConfigDefaults(t *testing.T) {
	cfg := ModelConfig{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Epochs != 300 || cfg.EvalEvery != 5 {
		t.Fatalf("defaults: %+v", cfg)
	}
	bad := ModelConfig{Epochs: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative epochs must fail")
	}
	// Every runner trains Lumos's model: the nn declaration's encoder under
	// Adam at its learning rate and weight decay.
	g := blGraph(t, 1)
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		r, err := newRunner(ModelConfig{Backbone: bb}, nn.NewConvGraph(g.N, g.Edges), g.Features, g.NumClasses)
		if err != nil {
			t.Fatal(err)
		}
		if want := nn.PaperGNN(bb, g.FeatureDim()); r.enc.Cfg != want {
			t.Fatalf("%v encoder %+v, want %+v", bb, r.enc.Cfg, want)
		}
		if r.opt.LR != nn.PaperLearningRate || r.opt.WeightDecay != nn.PaperWeightDecay {
			t.Fatalf("%v Adam lr %v decay %v", bb, r.opt.LR, r.opt.WeightDecay)
		}
	}
}

func TestCentralizedLearns(t *testing.T) {
	g := blGraph(t, 1)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	c, err := NewCentralized(g, ModelConfig{Backbone: nn.GCN, Epochs: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	losses := c.TrainSupervised(split)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatal("centralized loss did not improve")
	}
	acc, err := c.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("centralized accuracy %v too low on easy 2-class task", acc)
	}
}

func TestCentralizedNeedsFeatures(t *testing.T) {
	bare, _ := graph.NewFromEdges(10, [][2]int{{0, 1}}, nil, nil, 0)
	if _, err := NewCentralized(bare, ModelConfig{}); err == nil {
		t.Fatal("featureless centralized must error")
	}
}

func TestCentralizedLinkAUC(t *testing.T) {
	g := blGraph(t, 2)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCentralizedLink(g, es, ModelConfig{Backbone: nn.GCN, Epochs: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Train()
	auc, err := c.EvaluateAUC()
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.65 {
		t.Fatalf("centralized link AUC %v too low", auc)
	}
}

func TestLPGNNOrderingAndTrustModel(t *testing.T) {
	g := blGraph(t, 3)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(3)))
	mc := ModelConfig{Backbone: nn.GCN, Epochs: 40, Seed: 3}
	lp, err := NewLPGNN(g, LPGNNConfig{ModelConfig: mc, EpsX: 2, EpsY: 1})
	if err != nil {
		t.Fatal(err)
	}
	lp.TrainSupervised(split)
	acc, err := lp.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.55 {
		t.Fatalf("LPGNN accuracy %v too low with label correction", acc)
	}
}

func TestLPGNNValidation(t *testing.T) {
	g := blGraph(t, 4)
	if _, err := NewLPGNN(g, LPGNNConfig{EpsX: 0, EpsY: 1}); err == nil {
		t.Fatal("zero EpsX must error")
	}
	bare, _ := graph.NewFromEdges(10, [][2]int{{0, 1}}, nil, nil, 0)
	if _, err := NewLPGNN(bare, LPGNNConfig{EpsX: 1, EpsY: 1}); err == nil {
		t.Fatal("featureless LPGNN must error")
	}
}

func TestKPropSmoothes(t *testing.T) {
	g, _ := graph.NewFromEdges(3, [][2]int{{0, 1}, {1, 2}}, nil, nil, 0)
	x := tensor.FromRows([][]float64{{3}, {0}, {3}})
	sm := kprop(g, x, 1)
	// Node 1 averages over {0,1,2}: (3+0+3)/3 = 2.
	if math.Abs(sm.At(1, 0)-2) > 1e-12 {
		t.Fatalf("kprop value %v", sm.At(1, 0))
	}
	// Node 0 averages over {0,1}: 1.5.
	if math.Abs(sm.At(0, 0)-1.5) > 1e-12 {
		t.Fatalf("kprop value %v", sm.At(0, 0))
	}
}

func TestStandardizeColumns(t *testing.T) {
	x := tensor.FromRows([][]float64{{1, 5}, {3, 5}})
	s := standardize(x)
	// Column 0: mean 2, std 1 → values ±1. Column 1: constant → zeros.
	if math.Abs(s.At(0, 0)+1) > 1e-9 || math.Abs(s.At(1, 0)-1) > 1e-9 {
		t.Fatalf("standardize col0: %v, %v", s.At(0, 0), s.At(1, 0))
	}
	if s.At(0, 1) != 0 || s.At(1, 1) != 0 {
		t.Fatal("constant column must standardize to zero")
	}
}

func TestDenoiseLabelsMajority(t *testing.T) {
	// Path 0-1-2-3, all training, true class 0 everywhere, but node 1
	// observed as class 1. Neighbors vote it back to 0.
	g, _ := graph.NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, nil, []int{0, 0, 0, 0}, 2)
	noisy := []int{0, 1, 0, 0}
	isTrain := []bool{true, true, true, true}
	out := denoiseLabels(g, noisy, isTrain)
	if out[1] != 0 {
		t.Fatalf("majority vote kept wrong label: %v", out)
	}
	// Non-training nodes are left untouched.
	isTrain[1] = false
	out2 := denoiseLabels(g, noisy, isTrain)
	if out2[1] != 1 {
		t.Fatal("non-training label must not change")
	}
}

func TestNaiveFedNoisesEverything(t *testing.T) {
	g := blGraph(t, 5)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(5)))
	nf, err := NewNaiveFed(g, NaiveFedConfig{
		ModelConfig: ModelConfig{Backbone: nn.GCN, Epochs: 20, Seed: 5},
		EpsFeature:  2, EpsEdge: 2, EpsLabel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Randomized response on Θ(N²) pairs must add many noise edges.
	if got := nf.noisedGraph.NumEdges(); got <= g.NumEdges() {
		t.Fatalf("noised graph has %d edges, original %d", got, g.NumEdges())
	}
	if _, err := nf.TrainSupervised(split); err != nil {
		t.Fatal(err)
	}
	acc, err := nf.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.2 {
		t.Fatalf("naive accuracy %v below plausible floor", acc)
	}
}

func TestNaiveFedLink(t *testing.T) {
	g := blGraph(t, 6)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NewNaiveFed(es.TrainGraph, NaiveFedConfig{
		ModelConfig: ModelConfig{Backbone: nn.GCN, Epochs: 15, Seed: 6},
		EpsFeature:  2, EpsEdge: 2, EpsLabel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nf.TrainLink(es.Val, es.ValNeg)
	auc, err := nf.EvaluateAUC(es.Test, es.TestNeg)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.3 || auc > 0.95 {
		t.Fatalf("naive link AUC %v implausible", auc)
	}
}

// TestSampleNonEdgesOnNearCompleteGraph: a graph with fewer non-edges than
// the positives asked for yields every non-edge each epoch, not none (the
// link baselines used to train on positive pairs alone there).
func TestSampleNonEdgesOnNearCompleteGraph(t *testing.T) {
	var edges [][2]int
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if [2]int{u, v} != [2]int{0, 1} && [2]int{u, v} != [2]int{2, 3} {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g, err := graph.NewFromEdges(6, edges, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sample := sampleNonEdgesFn(g, len(edges), rand.New(rand.NewSource(1)))
	for epoch := 0; epoch < 5; epoch++ {
		got := sample()
		slices.SortFunc(got, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
		if !slices.Equal(got, [][2]int{{0, 1}, {2, 3}}) {
			t.Fatalf("epoch %d drew %v, want both non-edges", epoch, got)
		}
	}
}

func TestNaiveFedValidation(t *testing.T) {
	g := blGraph(t, 7)
	if _, err := NewNaiveFed(g, NaiveFedConfig{EpsFeature: 0, EpsEdge: 1}); err == nil {
		t.Fatal("zero feature budget must error")
	}
	bare, _ := graph.NewFromEdges(10, [][2]int{{0, 1}}, nil, nil, 0)
	if _, err := NewNaiveFed(bare, NaiveFedConfig{EpsFeature: 1, EpsEdge: 1}); err == nil {
		t.Fatal("featureless NaiveFed must error")
	}
}

func TestBinomialSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if binomial(0, 0.5, rng) != 0 || binomial(100, 0, rng) != 0 {
		t.Fatal("degenerate binomials wrong")
	}
	if binomial(100, 1, rng) != 100 {
		t.Fatal("p=1 binomial wrong")
	}
	// Exact path: mean check.
	sum := 0
	for i := 0; i < 2000; i++ {
		sum += binomial(100, 0.3, rng)
	}
	mean := float64(sum) / 2000
	if math.Abs(mean-30) > 1 {
		t.Fatalf("binomial mean %v, want 30", mean)
	}
	// Normal-approximation path stays in range.
	for i := 0; i < 100; i++ {
		k := binomial(1_000_000, 0.25, rng)
		if k < 0 || k > 1_000_000 {
			t.Fatalf("binomial out of range: %d", k)
		}
	}
}

func TestPerturbAdjacencyKeepsRate(t *testing.T) {
	g := blGraph(t, 9)
	rng := rand.New(rand.NewSource(9))
	edges, err := perturbAdjacency(g, 6 /* high ε: keep almost everything */, rng)
	if err != nil {
		t.Fatal(err)
	}
	// e^6/(e^6+1) ≈ 0.9975 keep; flip-in rate ≈ 0.0025 of ~9k non-edges.
	if len(edges) < g.NumEdges()-20 || len(edges) > g.NumEdges()+80 {
		t.Fatalf("high-eps perturbation changed edges too much: %d vs %d",
			len(edges), g.NumEdges())
	}
}
