package autodiff

import (
	"fmt"
	"math"

	"lumos/internal/tensor"
)

// Loss functions. Each returns a 1×1 Value suitable for Backward. Label,
// weight, and target slices are retained by reference like the index arrays
// of the graph ops.

// SumAll returns the sum of all entries as a 1×1 value.
func SumAll(a *Value) *Value {
	t := tapeFor("SumAll", a)
	data := t.scratch(1, 1)
	data.Set(0, 0, tensor.Sum(a.Data))
	return t.node(data, backSumAll, a)
}

func backSumAll(v *Value) {
	tensor.AddConstInPlace(v.parents[0].EnsureGrad(), v.Grad.At(0, 0))
}

// SumSquares returns Σ aᵢⱼ² as a 1×1 value (for L2 regularization).
func SumSquares(a *Value) *Value {
	s := 0.0
	for _, v := range a.Data.Data() {
		s += v * v
	}
	t := tapeFor("SumSquares", a)
	data := t.scratch(1, 1)
	data.Set(0, 0, s)
	return t.node(data, backSumSquares, a)
}

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
	out := t.node(data, backSoftmaxCE, logits)
	out.ints = labels
	out.fs = weights
	out.mat = probs
	out.s = totalW
	return out
}

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

// NoisyLabelCE is the forward-correction cross-entropy for learning with
// label noise of a known confusion structure: with p = softmax(logits) and
// T[i][j] = P(observed=j | true=i), the loss is −mean log((pᵀT)_ỹ). When the
// observed labels come from randomized response, training against the
// noise-adjusted distribution is a consistent estimator of the clean model
// (Patrini et al.; used here by the LPGNN baseline). A cold-path op: its
// backward closes over the forward's intermediates instead of using the
// tape's payload fields.
func NoisyLabelCE(logits *Value, noisy []int, T [][]float64, weights []float64) *Value {
	n, c := logits.Data.Dims()
	if len(noisy) != n {
		panic(fmt.Sprintf("autodiff: NoisyLabelCE %d labels for %d rows", len(noisy), n))
	}
	if len(T) != c {
		panic(fmt.Sprintf("autodiff: NoisyLabelCE transition matrix %d rows for %d classes", len(T), c))
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	t := tapeFor("NoisyLabelCE", logits)
	probs := t.scratch(n, c)
	tensor.SoftmaxRowsInto(probs, logits.Data)
	// q[i] = Σ_k p[i,k]·T[k][ỹ_i]
	q := make([]float64, n)
	totalW, loss := 0.0, 0.0
	for i := 0; i < n; i++ {
		wi := w(i)
		if wi == 0 {
			continue
		}
		y := noisy[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("autodiff: noisy label %d out of range [0,%d)", y, c))
		}
		prow := probs.Row(i)
		for k := 0; k < c; k++ {
			q[i] += prow[k] * T[k][y]
		}
		loss += wi * -math.Log(math.Max(q[i], 1e-12))
		totalW += wi
	}
	if totalW == 0 {
		panic("autodiff: NoisyLabelCE with all-zero weights")
	}
	loss /= totalW
	data := t.scratch(1, 1)
	data.Set(0, 0, loss)
	return t.node(data, func(out *Value) {
		g := logits.EnsureGrad()
		scale := out.Grad.At(0, 0) / totalW
		for i := 0; i < n; i++ {
			wi := w(i)
			if wi == 0 {
				continue
			}
			y := noisy[i]
			qi := math.Max(q[i], 1e-12)
			prow := probs.Row(i)
			// dL/dp_ik = −w·T[k][y]/q; chain through softmax Jacobian.
			dot := 0.0
			dp := make([]float64, c)
			for k := 0; k < c; k++ {
				dp[k] = -wi * T[k][y] / qi
				dot += dp[k] * prow[k]
			}
			grow := g.Row(i)
			for k := 0; k < c; k++ {
				grow[k] += scale * prow[k] * (dp[k] - dot)
			}
		}
	}, logits)
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
	out := t.node(data, backLogisticLoss, scores)
	out.fs = ys
	return out
}

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
