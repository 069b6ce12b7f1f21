package baselines

import (
	"fmt"
	"math"

	"lumos/internal/graph"
	"lumos/internal/ldp"
	"lumos/internal/nn"
	"lumos/internal/rng"
	"lumos/internal/tensor"
)

// LPGNNConfig extends the model config with LPGNN's privacy budgets: ε_x on
// features and ε_y on labels (paper experiments: ε_x = 2, ε_y = 1).
type LPGNNConfig struct {
	ModelConfig
	EpsX float64
	EpsY float64
}

// kpropSteps is the number of KProp feature-denoising aggregation hops.
const kpropSteps = 2

// LPGNN reproduces "Locally Private Graph Neural Networks" under its trust
// model: the server owns the true topology (weaker privacy than Lumos),
// receives multi-bit LDP-encoded features from every node, and trains
// against randomized-response-noised labels. The three components of the
// original system are all present:
//
//   - the multi-bit encoder with its optimal sampled-dimension count
//     m = max(1, min(d, ⌊ε_x/2.18⌋)) and unbiased rescaling;
//   - KProp feature denoising: kpropSteps rounds of degree-normalized
//     neighborhood averaging applied to the decoded features before
//     training (the server knows the topology, so this is free);
//   - Drop-style label denoising: training labels are corrected by a
//     neighborhood majority vote over noisy training labels (the stronger
//     rendition of LPGNN's Drop on homophilous graphs).
type LPGNN struct {
	g           *graph.Graph
	run         *runner
	noisyLabels []int
}

// NewLPGNN builds the LPGNN baseline over the full graph.
func NewLPGNN(g *graph.Graph, cfg LPGNNConfig) (*LPGNN, error) {
	if g.Features == nil || g.Labels == nil {
		return nil, fmt.Errorf("baselines: LPGNN needs features and labels")
	}
	if cfg.EpsX <= 0 || cfg.EpsY <= 0 {
		return nil, fmt.Errorf("baselines: LPGNN budgets must be positive (εx=%v εy=%v)", cfg.EpsX, cfg.EpsY)
	}
	rng := rng.Stream(cfg.Seed, rng.LPGNN, 0)
	d := g.FeatureDim()
	m := int(math.Floor(cfg.EpsX / 2.18))
	if m < 1 {
		m = 1
	}
	if m > d {
		m = d
	}
	mb := ldp.MultiBit{Eps: cfg.EpsX, M: m, A: g.FeatLo, B: g.FeatHi}
	noised := tensor.New(g.N, d)
	for v := 0; v < g.N; v++ {
		row, err := mb.Encode(g.Features.Row(v), rng)
		if err != nil {
			return nil, fmt.Errorf("baselines: LPGNN feature encoding: %w", err)
		}
		noised.SetRow(v, row)
	}
	denoised := standardize(kprop(g, noised, kpropSteps))
	rr := ldp.RandomizedResponse{Eps: cfg.EpsY, K: g.NumClasses}
	noisyLabels := make([]int, g.N)
	for v, y := range g.Labels {
		noisyLabels[v] = rr.Perturb(y, rng)
	}
	run, err := newRunner(cfg.ModelConfig, nn.NewConvGraph(g.N, g.Edges), denoised, g.NumClasses)
	if err != nil {
		return nil, err
	}
	return &LPGNN{g: g, run: run, noisyLabels: noisyLabels}, nil
}

// kprop applies steps rounds of mean neighborhood aggregation (with
// self-loops) to x — LPGNN's parameter-free feature denoising.
func kprop(g *graph.Graph, x *tensor.Matrix, steps int) *tensor.Matrix {
	cur := x
	for s := 0; s < steps; s++ {
		next := tensor.New(g.N, x.Cols())
		for v := 0; v < g.N; v++ {
			row := next.Row(v)
			copy(row, cur.Row(v))
			for _, u := range g.Adj[v] {
				urow := cur.Row(u)
				for j := range row {
					row[j] += urow[j]
				}
			}
			inv := 1 / float64(len(g.Adj[v])+1)
			for j := range row {
				row[j] *= inv
			}
		}
		cur = next
	}
	return cur
}

// standardize z-scores each feature column (server-side post-processing;
// differential privacy is closed under post-processing). Without it the
// sparsely sampled multi-bit features leave all rows nearly identical
// around the midpoint, which stalls optimization entirely.
func standardize(x *tensor.Matrix) *tensor.Matrix {
	n, d := x.Dims()
	out := tensor.New(n, d)
	for j := 0; j < d; j++ {
		mean := 0.0
		for i := 0; i < n; i++ {
			mean += x.At(i, j)
		}
		mean /= float64(n)
		variance := 0.0
		for i := 0; i < n; i++ {
			dv := x.At(i, j) - mean
			variance += dv * dv
		}
		std := math.Sqrt(variance / float64(n))
		if std < 1e-9 {
			std = 1
		}
		for i := 0; i < n; i++ {
			out.Set(i, j, (x.At(i, j)-mean)/std)
		}
	}
	return out
}

// denoiseLabels is the Drop-style label correction: each training vertex's
// label becomes the majority vote of noisy labels over itself and its
// training-set neighbors (ties favor the vertex's own noisy label).
func denoiseLabels(g *graph.Graph, noisy []int, isTrain []bool) []int {
	out := make([]int, len(noisy))
	copy(out, noisy)
	votes := make([]int, g.NumClasses)
	for v := 0; v < g.N; v++ {
		if !isTrain[v] {
			continue
		}
		for i := range votes {
			votes[i] = 0
		}
		votes[noisy[v]] += 2 // self vote with tie-break weight
		for _, u := range g.Adj[v] {
			if isTrain[u] {
				votes[noisy[u]]++
			}
		}
		best, bi := -1, noisy[v]
		for c, k := range votes {
			if k > best {
				best, bi = k, c
			}
		}
		out[v] = bi
	}
	return out
}

// TrainSupervised fits the model against the noisy training labels after
// the majority-vote correction. Model selection can only use the
// *noisy* validation labels: in LPGNN's trust model every label reaches the
// server through randomized response, so with many classes (small keep
// probability) validation selection degrades — the mechanism behind the
// paper's observation that Lumos's advantage grows with the class count,
// since Lumos keeps labels local and clean.
func (l *LPGNN) TrainSupervised(split *graph.NodeSplit) []float64 {
	weights := make([]float64, l.g.N)
	for _, v := range split.Train {
		weights[v] = 1
	}
	corrected := denoiseLabels(l.g, l.noisyLabels, split.IsTrain)
	return l.run.train(l.run.crossEntropy(corrected, weights), l.run.accuracyOn(l.noisyLabels, split.IsVal))
}

// EvaluateAccuracy scores against the *true* labels over mask.
func (l *LPGNN) EvaluateAccuracy(mask []bool) (float64, error) {
	return l.run.accuracy(l.g.Labels, mask)
}
