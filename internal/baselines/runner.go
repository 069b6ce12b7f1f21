// Package baselines implements the three comparison systems of the paper's
// §VIII-C:
//
//   - Centralized GNN: the non-private upper bound — full graph and raw
//     features on one server.
//   - LPGNN (Sajadmanesh & Gatica-Perez): the server knows the topology;
//     node features are protected with an ε_x multi-bit LDP encoder and
//     training labels with ε_y randomized response. Supervised only, as in
//     the paper.
//   - Naive FedGNN: devices noise everything locally (Gaussian mechanism on
//     features, randomized response on adjacency bits and labels) and the
//     server trains a GNN on the noised graph.
//
// All three reuse the same GNN backbones as Lumos so accuracy differences
// come from the privacy/federation mechanisms, not the architecture.
package baselines

import (
	"fmt"
	"math/rand"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/metrics"
	"lumos/internal/nn"
	"lumos/internal/rng"
	"lumos/internal/tensor"
)

// ModelConfig is the training schedule shared by every baseline. The model
// is Lumos's own: nn.PaperGNN for Backbone, trained by Adam at
// nn.PaperLearningRate with nn.PaperWeightDecay.
type ModelConfig struct {
	Backbone nn.Backbone
	Epochs   int
	// EvalEvery is the validation-selection cadence (default 5).
	EvalEvery int
	Seed      int64
}

// Validate fills the paper's defaults.
func (c *ModelConfig) Validate() error {
	if c.Epochs == 0 {
		c.Epochs = 300
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
	if c.Epochs < 0 || c.EvalEvery < 0 {
		return fmt.Errorf("baselines: invalid model config %+v", c)
	}
	return nil
}

// runner trains a GNN (+optional linear head) over one fixed graph view.
type runner struct {
	conv *nn.ConvGraph
	x    *tensor.Matrix
	enc  *nn.GNN
	head *nn.Linear
	opt  *nn.Adam
	rng  *rand.Rand
	cfg  ModelConfig
	// tape records every forward, training and evaluation alike; embed
	// resets it, so an epoch reuses the previous one's nodes and buffers.
	tape *autodiff.Tape
}

func newRunner(cfg ModelConfig, conv *nn.ConvGraph, x *tensor.Matrix, classes int) (*runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rng.New(cfg.Seed ^ 0x62617365)
	enc, err := nn.NewGNN(nn.PaperGNN(cfg.Backbone, x.Cols()), rng)
	if err != nil {
		return nil, err
	}
	r := &runner{
		conv: conv,
		x:    x,
		enc:  enc,
		opt:  nn.NewAdam(nn.PaperLearningRate),
		rng:  rng,
		cfg:  cfg,
		tape: autodiff.NewTape(),
	}
	r.opt.WeightDecay = nn.PaperWeightDecay
	if classes >= 2 {
		r.head = nn.NewLinear("head", enc.EmbeddingDim(), classes, rng)
	}
	return r, nil
}

func (r *runner) params() []*nn.Param {
	ps := r.enc.Params()
	if r.head != nil {
		ps = append(ps, r.head.Params()...)
	}
	return ps
}

// Params implements nn.Module.
func (r *runner) Params() []*nn.Param { return r.params() }

// embed resets the tape and records the encoder's forward over the graph.
// Everything recorded before it becomes invalid.
func (r *runner) embed(training bool) *autodiff.Value {
	r.tape.Reset()
	return r.enc.Forward(r.conv, r.tape.Const(r.x), training, r.rng)
}

// train runs cfg.Epochs epochs and returns the loss trace. Each epoch
// records loss() (which runs a training-mode forward), steps Adam on its
// gradient, and — every EvalEvery epochs and at the last — scores val();
// the best-scoring parameters are restored at the end. A nil val trains
// without model selection.
func (r *runner) train(loss func() *autodiff.Value, val func() (float64, error)) []float64 {
	losses := make([]float64, 0, r.cfg.Epochs)
	bestVal, bestSnap := -1.0, []*tensor.Matrix(nil)
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
		l := loss()
		nn.ZeroGrad(r)
		l.Backward()
		r.opt.Step(r.params())
		losses = append(losses, l.Scalar())
		if val != nil && (epoch%r.cfg.EvalEvery == 0 || epoch == r.cfg.Epochs-1) {
			if v, err := val(); err == nil && v > bestVal {
				bestVal = v
				bestSnap = nn.Snapshot(r)
			}
		}
	}
	if bestSnap != nil {
		nn.Restore(r, bestSnap)
	}
	return losses
}

// crossEntropy is the supervised loss against (possibly noised) labels with
// per-vertex weights, over the head's class scores from a training-mode
// forward.
func (r *runner) crossEntropy(labels []int, weights []float64) func() *autodiff.Value {
	if r.head == nil {
		panic("baselines: supervised training without a head")
	}
	return func() *autodiff.Value {
		return autodiff.SoftmaxCrossEntropy(r.head.Forward(r.embed(true)), labels, weights)
	}
}

// linkLoss is the link-prediction loss over fixed positive pairs, with
// negatives resampled every epoch by sampleNeg.
func (r *runner) linkLoss(pos [][2]int, sampleNeg func() [][2]int) func() *autodiff.Value {
	return func() *autodiff.Value {
		neg := sampleNeg()
		idxU := make([]int, 0, len(pos)+len(neg))
		idxV := make([]int, 0, len(pos)+len(neg))
		ys := make([]float64, 0, len(pos)+len(neg))
		for _, e := range pos {
			idxU = append(idxU, e[0])
			idxV = append(idxV, e[1])
			ys = append(ys, 1)
		}
		for _, e := range neg {
			idxU = append(idxU, e[0])
			idxV = append(idxV, e[1])
			ys = append(ys, -1)
		}
		return autodiff.LogisticLoss(autodiff.PairDot(r.embed(true), idxU, idxV), ys)
	}
}

// accuracyOn is validation accuracy against labels over mask, or nil (no
// model selection) when either is missing.
func (r *runner) accuracyOn(labels []int, mask []bool) func() (float64, error) {
	if labels == nil || mask == nil {
		return nil
	}
	return func() (float64, error) { return r.accuracy(labels, mask) }
}

// aucOn is validation ROC-AUC over pos and neg, or nil (no model selection)
// when either is empty.
func (r *runner) aucOn(pos, neg [][2]int) func() (float64, error) {
	if len(pos) == 0 || len(neg) == 0 {
		return nil
	}
	return func() (float64, error) { return r.auc(pos, neg) }
}

// accuracy evaluates argmax predictions against true labels over mask.
func (r *runner) accuracy(trueLabels []int, mask []bool) (float64, error) {
	logits := r.head.Forward(r.embed(false))
	pred := make([]int, logits.Data.Rows())
	for v := range pred {
		pred[v] = tensor.ArgMaxRow(logits.Data, v)
	}
	return metrics.Accuracy(pred, trueLabels, mask)
}

// auc evaluates link-prediction ROC-AUC on positive/negative pairs.
func (r *runner) auc(pos, neg [][2]int) (float64, error) {
	emb := r.embed(false).Data
	scores := make([]float64, 0, len(pos)+len(neg))
	labels := make([]bool, 0, len(pos)+len(neg))
	for _, e := range pos {
		scores = append(scores, tensor.RowDot(emb, e[0], emb, e[1]))
		labels = append(labels, true)
	}
	for _, e := range neg {
		scores = append(scores, tensor.RowDot(emb, e[0], emb, e[1]))
		labels = append(labels, false)
	}
	return metrics.ROCAUC(scores, labels)
}

// sampleNonEdgesFn returns a closure drawing k fresh non-edges of g per
// call, or every non-edge when g has fewer than k: a near-complete graph
// still trains against negatives.
func sampleNonEdgesFn(g *graph.Graph, k int, rng *rand.Rand) func() [][2]int {
	k = min(k, g.N*(g.N-1)/2-g.NumEdges())
	return func() [][2]int {
		out, err := graph.SampleNonEdges(g, k, rng)
		if err != nil {
			panic(err) // k never exceeds the non-edges available
		}
		return out
	}
}
