package main

import (
	"fmt"
	"math"
	"sort"
)

// lowerEnvelope is the harness's estimator for deterministic work on a host
// with slow periods: passes[p][i] is the time of round i in pass p, every
// pass runs the identical rounds, and the envelope keeps, per round, the
// fastest pass. A slow period inflates the rounds it covers in one pass
// only; it moves the envelope only if it covers the same round in every
// pass. Returns the per-round minima and their sum.
func lowerEnvelope(passes [][]float64) ([]float64, float64, error) {
	if len(passes) == 0 || len(passes[0]) == 0 {
		return nil, 0, fmt.Errorf("lower envelope of no samples")
	}
	env := append([]float64(nil), passes[0]...)
	for p, pass := range passes[1:] {
		if len(pass) != len(env) {
			return nil, 0, fmt.Errorf("pass %d has %d rounds, pass 0 has %d", p+1, len(pass), len(env))
		}
		for i, t := range pass {
			env[i] = math.Min(env[i], t)
		}
	}
	sum := 0.0
	for _, t := range env {
		sum += t
	}
	return env, sum, nil
}

// quantile returns the q-quantile (nearest rank, q in [0,1]) of the samples
// and the sample count it rests on; it does not modify its argument.
func quantile(samples []float64, q float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx], n
}

// median is the middle sample (mean of the middle two for even counts).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(samples []float64) float64 {
	m := math.Inf(1)
	for _, v := range samples {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

// tailQuantile is the highest of p99, p95 and p90 that still has at least
// ten samples beyond it, so a reported tail never rests on a handful of
// points; 0.5 when the sample is too small for any of them.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}
