package autodiff

import (
	"fmt"
	"math"

	"lumos/internal/tensor"
)

// Loss functions. Each returns a 1×1 Value suitable for Backward. Label,
// weight, and target slices are retained by reference like the index arrays
// of the graph ops.

// SumSquares returns Σ aᵢⱼ² as a 1×1 value (for L2 regularization).
func SumSquares(a *Value) *Value {
	s := 0.0
	for _, v := range a.Data.Data() {
		s += v * v
	}
	t := tapeFor("SumSquares", a)
	data := t.scratch(1, 1)
	data.Set(0, 0, s)
	return t.node(data, opSumSquares, a)
}

var opSumSquares = &op{back: backSumSquares, readsIn: true}

func backSumSquares(v *Value) {
	a := v.parents[0]
	tensor.AddScaledInPlace(a.EnsureGrad(), 2*v.Grad.At(0, 0), a.Data)
}

// SoftmaxCrossEntropy returns the weighted mean cross-entropy between
// row-wise softmax(logits) and the integer labels. weights may be nil (all
// ones); rows with weight 0 are ignored entirely, which is how train/test
// masking is expressed. Panics if every weight is zero.
func SoftmaxCrossEntropy(logits *Value, labels []int, weights []float64) *Value {
	n, c := logits.Data.Dims()
	if len(labels) != n {
		panic(fmt.Sprintf("autodiff: SoftmaxCrossEntropy %d labels for %d rows", len(labels), n))
	}
	if weights != nil && len(weights) != n {
		panic(fmt.Sprintf("autodiff: SoftmaxCrossEntropy %d weights for %d rows", len(weights), n))
	}
	t := tapeFor("SoftmaxCrossEntropy", logits)
	probs := t.scratch(n, c)
	tensor.SoftmaxRowsInto(probs, logits.Data)
	totalW := 0.0
	loss := 0.0
	for i := 0; i < n; i++ {
		wi := 1.0
		if weights != nil {
			wi = weights[i]
		}
		if wi == 0 {
			continue
		}
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("autodiff: label %d out of range [0,%d) at row %d", y, c, i))
		}
		p := probs.At(i, y)
		loss += wi * -math.Log(math.Max(p, 1e-12))
		totalW += wi
	}
	if totalW == 0 {
		panic("autodiff: SoftmaxCrossEntropy with all-zero weights")
	}
	loss /= totalW
	data := t.scratch(1, 1)
	data.Set(0, 0, loss)
	out := t.node(data, opSoftmaxCE, logits)
	out.ints = labels
	out.fs = weights
	out.mat = probs
	out.s = totalW
	return out
}

// The backward reads the probabilities it kept, not the logits.
var opSoftmaxCE = &op{back: backSoftmaxCE}

func backSoftmaxCE(v *Value) {
	logits, probs := v.parents[0], v.mat
	n := probs.Rows()
	g := logits.EnsureGrad()
	scale := v.Grad.At(0, 0) / v.s
	for i := 0; i < n; i++ {
		wi := 1.0
		if v.fs != nil {
			wi = v.fs[i]
		}
		if wi == 0 {
			continue
		}
		grow, prow := g.Row(i), probs.Row(i)
		for j := range grow {
			grow[j] += scale * wi * prow[j]
		}
		grow[v.ints[i]] -= scale * wi
	}
}

// LogisticLoss returns the mean binary logistic loss over the n×1 score
// column with targets ys ∈ {+1, −1}:
//
//	L = (1/n) Σ log(1 + exp(−yᵢ·sᵢ))
//
// This is the numerically stable form of the negative-sampling objective in
// the paper's Eq. 33 (whose log(−σ(x)) is a typo for log σ(−x)).
func LogisticLoss(scores *Value, ys []float64) *Value {
	n := scores.Data.Rows()
	if scores.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: LogisticLoss on %dx%d (want n×1)", n, scores.Data.Cols()))
	}
	if len(ys) != n {
		panic(fmt.Sprintf("autodiff: LogisticLoss %d targets for %d scores", len(ys), n))
	}
	if n == 0 {
		panic("autodiff: LogisticLoss of no scores")
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		z := -ys[i] * scores.Data.At(i, 0)
		loss += softplus(z)
	}
	loss /= float64(n)
	t := tapeFor("LogisticLoss", scores)
	data := t.scratch(1, 1)
	data.Set(0, 0, loss)
	out := t.node(data, opLogisticLoss, scores)
	out.fs = ys
	return out
}

var opLogisticLoss = &op{back: backLogisticLoss, readsIn: true}

func backLogisticLoss(v *Value) {
	scores := v.parents[0]
	n := scores.Data.Rows()
	g := scores.EnsureGrad()
	scale := v.Grad.At(0, 0) / float64(n)
	for i := 0; i < n; i++ {
		// d softplus(−y·s)/ds = −y·σ(−y·s)
		z := -v.fs[i] * scores.Data.At(i, 0)
		g.Set(i, 0, g.At(i, 0)+scale*-v.fs[i]*sigmoid(z))
	}
}

// softplus computes log(1+e^x) without overflow.
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
