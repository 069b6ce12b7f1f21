package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"lumos/internal/graph"
	"lumos/internal/ldp"
	"lumos/internal/nn"
	"lumos/internal/rng"
	"lumos/internal/tensor"
)

// NaiveFedConfig extends the model config with the naive system's noise
// parameters. EpsFeature calibrates the Gaussian mechanism (δ = naiveDelta);
// EpsEdge and EpsLabel drive randomized response on adjacency bits and
// labels.
type NaiveFedConfig struct {
	ModelConfig
	EpsFeature float64
	EpsEdge    float64
	EpsLabel   float64
}

// naiveDelta is the Gaussian mechanism's δ on each device's features.
const naiveDelta = 1e-5

// NaiveFed is the paper's "Naive FedGNN" baseline (§VIII-C): every device
// noises its entire ego network — Gaussian noise on features, randomized
// response on each adjacency bit and on the label — and ships it to the
// server, which trains a GNN on the resulting noised graph. Because
// randomized response flips a constant fraction of the Θ(N²) non-edges into
// edges, the noised topology is dominated by random edges, which is exactly
// why this baseline collapses in the paper's Figs. 3–4.
type NaiveFed struct {
	g           *graph.Graph
	noisedGraph *graph.Graph
	run         *runner
	noisyLabels []int
	rng         *rand.Rand
}

// NewNaiveFed builds the baseline: noises features, labels, and topology.
func NewNaiveFed(g *graph.Graph, cfg NaiveFedConfig) (*NaiveFed, error) {
	if g.Features == nil {
		return nil, fmt.Errorf("baselines: NaiveFed needs features")
	}
	if cfg.EpsFeature <= 0 || cfg.EpsEdge <= 0 {
		return nil, fmt.Errorf("baselines: NaiveFed budgets must be positive")
	}
	rng := rng.Stream(cfg.Seed, rng.NaiveFed, 0)

	// L2 sensitivity of releasing the whole feature vector: adjacent
	// inputs may differ in every coordinate, so Δ₂ = (b−a)·√d.
	sensitivity := (g.FeatHi - g.FeatLo) * math.Sqrt(float64(g.FeatureDim()))
	sigma, err := ldp.GaussianSigma(cfg.EpsFeature, naiveDelta, sensitivity)
	if err != nil {
		return nil, err
	}
	gm := ldp.Gaussian{Sigma: sigma}
	noisedX := tensor.New(g.N, g.FeatureDim())
	for v := 0; v < g.N; v++ {
		row := append([]float64(nil), g.Features.Row(v)...)
		noisedX.SetRow(v, gm.Perturb(row, rng))
	}

	noisedEdges, err := perturbAdjacency(g, cfg.EpsEdge, rng)
	if err != nil {
		return nil, err
	}
	ng, err := graph.NewFromEdges(g.N, noisedEdges, noisedX, nil, 0)
	if err != nil {
		return nil, err
	}
	ng.Name = g.Name + "/naive-noised"

	var noisyLabels []int
	if g.Labels != nil && g.NumClasses >= 2 && cfg.EpsLabel > 0 {
		rr := ldp.RandomizedResponse{Eps: cfg.EpsLabel, K: g.NumClasses}
		noisyLabels = make([]int, g.N)
		for v, y := range g.Labels {
			noisyLabels[v] = rr.Perturb(y, rng)
		}
	}

	run, err := newRunner(cfg.ModelConfig, nn.NewConvGraph(g.N, ng.Edges), noisedX, g.NumClasses)
	if err != nil {
		return nil, err
	}
	return &NaiveFed{
		g:           g,
		noisedGraph: ng,
		run:         run,
		noisyLabels: noisyLabels,
		rng:         rng,
	}, nil
}

// TrainSupervised fits against the noised labels on the noised topology.
func (n *NaiveFed) TrainSupervised(split *graph.NodeSplit) ([]float64, error) {
	if n.noisyLabels == nil {
		return nil, fmt.Errorf("baselines: NaiveFed built without labels")
	}
	weights := make([]float64, n.g.N)
	for _, v := range split.Train {
		weights[v] = 1
	}
	// Model selection sees only the noisy labels the server actually holds.
	return n.run.train(n.run.crossEntropy(n.noisyLabels, weights), n.run.accuracyOn(n.noisyLabels, split.IsVal)), nil
}

// EvaluateAccuracy scores against the true labels.
func (n *NaiveFed) EvaluateAccuracy(mask []bool) (float64, error) {
	return n.run.accuracy(n.g.Labels, mask)
}

// TrainLink fits the link objective using the noised edges as positives
// (the server knows nothing better) and random noised-graph non-edges as
// negatives. valPos/valNeg (true validation pairs) drive model selection
// and may be nil.
func (n *NaiveFed) TrainLink(valPos, valNeg [][2]int) []float64 {
	pos := n.noisedGraph.Edges
	if len(pos) > 4*len(n.g.Edges) {
		// The noised graph can carry an order of magnitude more (random)
		// edges than the original; cap the training positives so epochs
		// stay comparable across systems.
		pos = pos[:4*len(n.g.Edges)]
	}
	return n.run.train(n.run.linkLoss(pos, sampleNonEdgesFn(n.noisedGraph, len(pos), n.rng)), n.run.aucOn(valPos, valNeg))
}

// EvaluateAUC scores ROC-AUC on the true test edges and non-edges.
func (n *NaiveFed) EvaluateAUC(pos, neg [][2]int) (float64, error) {
	return n.run.auc(pos, neg)
}

// perturbAdjacency applies randomized response to every adjacency bit:
// true edges survive with probability e^ε/(e^ε+1); each non-edge flips in
// with probability 1/(e^ε+1). The Θ(N²) non-edges are handled by sampling
// the binomial count of flip-ins and then drawing that many distinct
// non-edges, which is equivalent to per-bit flipping without enumerating
// all pairs.
func perturbAdjacency(g *graph.Graph, eps float64, rng *rand.Rand) ([][2]int, error) {
	keep := math.Exp(eps) / (math.Exp(eps) + 1)
	flip := 1 - keep
	var out [][2]int
	for _, e := range g.Edges {
		if rng.Float64() < keep {
			out = append(out, e)
		}
	}
	pairs := g.N * (g.N - 1) / 2
	nonEdges := pairs - len(g.Edges)
	flipIns := binomial(nonEdges, flip, rng)
	if flipIns > nonEdges {
		flipIns = nonEdges
	}
	extra, err := graph.SampleNonEdges(g, flipIns, rng)
	if err != nil {
		return nil, err
	}
	return append(out, extra...), nil
}

// binomial samples Binomial(n, p) — exactly for small n, via the normal
// approximation for large n (n·p·(1−p) > 100), which is ample for counting
// noise edges.
func binomial(n int, p float64, rng *rand.Rand) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	variance := float64(n) * p * (1 - p)
	if n <= 1000 || variance <= 100 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	k := int(math.Round(mean + math.Sqrt(variance)*rng.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
