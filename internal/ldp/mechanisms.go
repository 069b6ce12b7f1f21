package ldp

import (
	"fmt"
	"math"
	"math/rand"
)

// Mechanisms used by the baseline systems.

// Gaussian is the Gaussian mechanism: x + N(0, σ²) per element, where σ is
// calibrated from (ε, δ) and the L2 sensitivity. Used by Naive FedGNN to
// noise features.
type Gaussian struct {
	Sigma float64
}

// GaussianSigma returns the standard deviation of the classical Gaussian
// mechanism for (ε, δ)-DP with the given L2 sensitivity:
// σ = sensitivity·√(2 ln(1.25/δ))/ε.
func GaussianSigma(eps, delta, sensitivity float64) (float64, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 || sensitivity <= 0 {
		return 0, fmt.Errorf("ldp: bad Gaussian parameters eps=%v delta=%v sens=%v", eps, delta, sensitivity)
	}
	return sensitivity * math.Sqrt(2*math.Log(1.25/delta)) / eps, nil
}

// Perturb adds independent Gaussian noise to each element of x in place
// and returns x.
func (g Gaussian) Perturb(x []float64, rng *rand.Rand) []float64 {
	for i := range x {
		x[i] += g.Sigma * rng.NormFloat64()
	}
	return x
}

// RandomizedResponse is Warner's randomized response over k categories:
// the true value is kept with probability e^ε/(e^ε+k−1), otherwise one of
// the k−1 other values is reported uniformly. Used by Naive FedGNN to noise
// labels (k = classes) and adjacency bits (k = 2).
type RandomizedResponse struct {
	Eps float64
	K   int
}

// KeepProb returns the probability of reporting the true category.
func (r RandomizedResponse) KeepProb() float64 {
	e := math.Exp(r.Eps)
	return e / (e + float64(r.K) - 1)
}

// Perturb reports a randomized category for the true value v ∈ [0, K).
func (r RandomizedResponse) Perturb(v int, rng *rand.Rand) int {
	if r.K < 2 {
		panic(fmt.Sprintf("ldp: randomized response needs K ≥ 2, got %d", r.K))
	}
	if v < 0 || v >= r.K {
		panic(fmt.Sprintf("ldp: category %d outside [0,%d)", v, r.K))
	}
	if rng.Float64() < r.KeepProb() {
		return v
	}
	// Uniform over the other K−1 categories.
	o := rng.Intn(r.K - 1)
	if o >= v {
		o++
	}
	return o
}

// MultiBit is an LPGNN-style multi-bit feature encoder: each user uniformly
// samples M of the D dimensions, randomizes each with budget ε/M using the
// one-bit mechanism, and the server rescales to an unbiased estimate;
// unsampled dimensions contribute the midpoint.
type MultiBit struct {
	Eps  float64
	M    int // sampled dimensions per user
	A, B float64
}

// Encode randomizes x and immediately applies the unbiased recovery map,
// returning the server-side estimate (LPGNN transmits bits; we return the
// decoded estimate since encoder and decoder are both simulated here).
func (m MultiBit) Encode(x []float64, rng *rand.Rand) ([]float64, error) {
	d := len(x)
	if d == 0 {
		return nil, fmt.Errorf("ldp: multi-bit encode of empty feature")
	}
	mm := m.M
	if mm <= 0 || mm > d {
		mm = d
	}
	ob := OneBit{Eps: m.Eps / float64(mm), A: m.A, B: m.B}
	if err := ob.Validate(); err != nil {
		return nil, err
	}
	c := ob.coder()
	out := make([]float64, d)
	mid := (m.A + m.B) / 2
	for i := range out {
		out[i] = mid
	}
	for _, i := range rng.Perm(d)[:mm] {
		out[i] = c.recover(c.encode(x[i], rng))
	}
	return out, nil
}

// ComposedEps returns the total budget of a sequence of mechanisms with
// budgets eps, by basic (sequential) composition: Σᵢ εᵢ.
func ComposedEps(eps ...float64) float64 {
	s := 0.0
	for _, e := range eps {
		s += e
	}
	return s
}
