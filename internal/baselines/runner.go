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
	"lumos/internal/tensor"
)

// ModelConfig are the architecture/optimization knobs shared by every
// baseline (kept equal to Lumos's in experiments).
type ModelConfig struct {
	Backbone     nn.Backbone
	Hidden       int
	OutDim       int
	Layers       int
	Heads        int
	Dropout      float64
	LearningRate float64
	// WeightDecay is Adam's L2 coefficient (default 5e-4; negative
	// disables it), matching the Lumos trainer.
	WeightDecay float64
	Epochs      int
	// EvalEvery is the validation-selection cadence (default 5).
	EvalEvery int
	Seed      int64
}

// Validate fills the paper's defaults.
func (c *ModelConfig) Validate() error {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.OutDim == 0 {
		c.OutDim = 16
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.Dropout == 0 {
		c.Dropout = 0.01
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 5e-4
	}
	if c.WeightDecay < 0 {
		c.WeightDecay = 0
	}
	if c.Epochs == 0 {
		c.Epochs = 300
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
	if c.Epochs < 0 || c.EvalEvery < 0 || c.LearningRate <= 0 || c.Dropout < 0 || c.Dropout >= 1 {
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
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x62617365))
	enc, err := nn.NewGNN(nn.GNNConfig{
		Backbone: cfg.Backbone,
		InDim:    x.Cols(),
		Hidden:   cfg.Hidden,
		OutDim:   cfg.OutDim,
		Layers:   cfg.Layers,
		Heads:    cfg.Heads,
		Dropout:  cfg.Dropout,
	}, rng)
	if err != nil {
		return nil, err
	}
	r := &runner{
		conv: conv,
		x:    x,
		enc:  enc,
		opt:  nn.NewAdam(cfg.LearningRate),
		rng:  rng,
		cfg:  cfg,
		tape: autodiff.NewTape(),
	}
	r.opt.WeightDecay = cfg.WeightDecay
	if classes >= 2 {
		r.head = nn.NewLinear("head", cfg.OutDim, classes, rng)
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

// trainSupervised runs the full supervised loop against (possibly noised)
// labels with per-vertex weights and returns the loss trace. When trueLabels
// and valMask are non-nil, validation accuracy drives model selection.
func (r *runner) trainSupervised(labels []int, weights []float64, trueLabels []int, valMask []bool) []float64 {
	if r.head == nil {
		panic("baselines: supervised training without a head")
	}
	losses := make([]float64, 0, r.cfg.Epochs)
	bestVal, bestSnap := -1.0, []*tensor.Matrix(nil)
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
		logits := r.head.Forward(r.embed(true))
		loss := autodiff.SoftmaxCrossEntropy(logits, labels, weights)
		nn.ZeroGrad(r)
		loss.Backward()
		r.opt.Step(r.params())
		losses = append(losses, loss.Scalar())
		if trueLabels != nil && valMask != nil && (epoch%r.cfg.EvalEvery == 0 || epoch == r.cfg.Epochs-1) {
			if acc, err := r.accuracy(trueLabels, valMask); err == nil && acc > bestVal {
				bestVal = acc
				bestSnap = nn.Snapshot(r)
			}
		}
	}
	if bestSnap != nil {
		nn.Restore(r, bestSnap)
	}
	return losses
}

// trainSupervisedNoisy is trainSupervised with the forward-correction loss
// for labels observed through a known confusion matrix T.
func (r *runner) trainSupervisedNoisy(noisy []int, T [][]float64, weights []float64, trueLabels []int, valMask []bool) []float64 {
	if r.head == nil {
		panic("baselines: supervised training without a head")
	}
	losses := make([]float64, 0, r.cfg.Epochs)
	bestVal, bestSnap := -1.0, []*tensor.Matrix(nil)
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
		logits := r.head.Forward(r.embed(true))
		loss := autodiff.NoisyLabelCE(logits, noisy, T, weights)
		nn.ZeroGrad(r)
		loss.Backward()
		r.opt.Step(r.params())
		losses = append(losses, loss.Scalar())
		if trueLabels != nil && valMask != nil && (epoch%r.cfg.EvalEvery == 0 || epoch == r.cfg.Epochs-1) {
			if acc, err := r.accuracy(trueLabels, valMask); err == nil && acc > bestVal {
				bestVal = acc
				bestSnap = nn.Snapshot(r)
			}
		}
	}
	if bestSnap != nil {
		nn.Restore(r, bestSnap)
	}
	return losses
}

// trainLink runs the unsupervised link-prediction loop over fixed positive
// pairs, resampling negatives each epoch via sampleNeg. When valPos/valNeg
// are non-empty, validation AUC drives model selection.
func (r *runner) trainLink(pos [][2]int, sampleNeg func() [][2]int, valPos, valNeg [][2]int) []float64 {
	losses := make([]float64, 0, r.cfg.Epochs)
	bestVal, bestSnap := -1.0, []*tensor.Matrix(nil)
	for epoch := 0; epoch < r.cfg.Epochs; epoch++ {
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
		emb := r.embed(true)
		loss := autodiff.LogisticLoss(autodiff.PairDot(emb, idxU, idxV), ys)
		nn.ZeroGrad(r)
		loss.Backward()
		r.opt.Step(r.params())
		losses = append(losses, loss.Scalar())
		if len(valPos) > 0 && len(valNeg) > 0 && (epoch%r.cfg.EvalEvery == 0 || epoch == r.cfg.Epochs-1) {
			if auc, err := r.auc(valPos, valNeg); err == nil && auc > bestVal {
				bestVal = auc
				bestSnap = nn.Snapshot(r)
			}
		}
	}
	if bestSnap != nil {
		nn.Restore(r, bestSnap)
	}
	return losses
}

// accuracy evaluates argmax predictions against true labels over mask.
func (r *runner) accuracy(trueLabels []int, mask []bool) (float64, error) {
	logits := r.head.Forward(r.embed(false))
	pred := make([]int, logits.Rows())
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

// sampleNonEdgesFn returns a closure drawing k fresh non-edges of g per call.
func sampleNonEdgesFn(g *graph.Graph, k int, rng *rand.Rand) func() [][2]int {
	return func() [][2]int {
		out, err := graph.SampleNonEdges(g, k, rng)
		if err != nil {
			// Extremely dense graphs cannot supply enough negatives; fall
			// back to whatever is available rather than aborting training.
			return nil
		}
		return out
	}
}
