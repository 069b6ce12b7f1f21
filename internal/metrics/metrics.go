// Package metrics implements the evaluation measures of the paper's §VIII:
// classification accuracy, ROC-AUC for link prediction (Fig. 4), and the
// workload CDF used in Fig. 7, plus small summary-statistic helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of indices where pred matches truth,
// restricted to mask (nil mask = all indices).
func Accuracy(pred, truth []int, mask []bool) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: %d predictions for %d labels", len(pred), len(truth))
	}
	if mask != nil && len(mask) != len(pred) {
		return 0, fmt.Errorf("metrics: mask length %d for %d predictions", len(mask), len(pred))
	}
	total, correct := 0, 0
	for i := range pred {
		if mask != nil && !mask[i] {
			continue
		}
		total++
		if pred[i] == truth[i] {
			correct++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: empty evaluation set")
	}
	return float64(correct) / float64(total), nil
}

// ROCAUC returns the area under the ROC curve for scores with binary
// labels, using the rank statistic with midranks for ties: the probability
// that a random positive outscores a random negative (paper §VIII-B).
func ROCAUC(scores []float64, positive []bool) (float64, error) {
	if len(scores) != len(positive) {
		return 0, fmt.Errorf("metrics: %d scores for %d labels", len(scores), len(positive))
	}
	n := len(scores)
	pos, neg := 0, 0
	for _, p := range positive {
		if p {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("metrics: ROC-AUC needs both classes (pos=%d neg=%d)", pos, neg)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks over tied groups.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	sumPos := 0.0
	for i, p := range positive {
		if p {
			sumPos += ranks[i]
		}
	}
	auc := (sumPos - float64(pos)*(float64(pos)+1)/2) / (float64(pos) * float64(neg))
	return auc, nil
}

// CDF is an empirical cumulative distribution over integer samples.
type CDF struct {
	sorted []int
}

// NewCDF builds an empirical CDF from values.
func NewCDF(values []int) *CDF {
	s := append([]int(nil), values...)
	sort.Ints(s)
	return &CDF{sorted: s}
}

// Quantile returns the smallest value v with P[X ≤ v] ≥ p.
func (c *CDF) Quantile(p float64) int {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Max returns the largest sample.
func (c *CDF) Max() int {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns the (value, cumulative probability) series for plotting,
// one point per distinct value — the Fig. 7 curves.
func (c *CDF) Points() ([]int, []float64) {
	var xs []int
	var ps []float64
	n := len(c.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && c.sorted[j] == c.sorted[i] {
			j++
		}
		xs = append(xs, c.sorted[i])
		ps = append(ps, float64(j)/float64(n))
		i = j
	}
	return xs, ps
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelChange returns (a−b)/b, the relative-difference statistic the paper
// reports ("Lumos outperforms X with a Y% increase").
func RelChange(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return (a - b) / b
}
