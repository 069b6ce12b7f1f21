// Package ldp implements the local differential privacy mechanisms used by
// Lumos and its baselines:
//
//   - the one-bit mechanism (Ding et al., "Collecting Telemetry Data
//     Privately") with Lumos's per-neighbor bin partitioning and unbiased
//     recovery (paper §VI-A, Eq. 26–27, Theorems 3–4);
//   - a multi-bit variant in the style of LPGNN's feature encoder;
//   - the Gaussian mechanism and (k-ary) randomized response used by the
//     Naive FedGNN baseline to noise features, adjacency, and labels.
//
// All mechanisms take an explicit *rand.Rand so experiments are
// reproducible; nothing in this package touches global randomness.
package ldp

import (
	"fmt"
	"math"
	"math/rand"
)

// OneBit is the one-bit LDP mechanism over values in [A, B] with per-element
// privacy budget Eps: each value is randomized to a single bit whose
// distribution is ε-LDP, then recovered to an unbiased estimate.
type OneBit struct {
	Eps  float64 // per-element privacy budget ε'
	A, B float64 // value bounds
}

// Validate checks the mechanism parameters.
func (m OneBit) Validate() error {
	if m.Eps <= 0 {
		return fmt.Errorf("ldp: one-bit mechanism needs ε > 0, got %v", m.Eps)
	}
	if !(m.B > m.A) {
		return fmt.Errorf("ldp: one-bit bounds [%v,%v] invalid", m.A, m.B)
	}
	return nil
}

// EncodeValue randomizes one value to a bit per Eq. 26:
//
//	Pr[x' = 1] = 1/(e^ε+1) + (x−a)/(b−a) · (e^ε−1)/(e^ε+1)
func (m OneBit) EncodeValue(x float64, rng *rand.Rand) float64 {
	return m.coder().encode(x, rng)
}

// RecoverValue maps an encoded bit back to an unbiased estimate per Eq. 27.
// The sentinel 0.5 ("not transmitted") recovers to the midpoint (a+b)/2,
// which carries no directional information.
func (m OneBit) RecoverValue(bit float64) float64 {
	return m.coder().recover(bit)
}

// oneBitCoder is a OneBit with e^ε evaluated once, for the encoders that
// treat a whole feature vector under one budget. Its arithmetic is Eq. 26–27
// exactly as EncodeValue and RecoverValue state it, so per-element and
// per-vector calls agree bit for bit.
type oneBitCoder struct {
	m OneBit
	e float64 // e^ε
}

func (m OneBit) coder() oneBitCoder {
	return oneBitCoder{m: m, e: math.Exp(m.Eps)}
}

func (c oneBitCoder) encode(x float64, rng *rand.Rand) float64 {
	m, e := c.m, c.e
	p := 1/(e+1) + (clamp(x, m.A, m.B)-m.A)/(m.B-m.A)*(e-1)/(e+1)
	if rng.Float64() < p {
		return 1
	}
	return 0
}

func (c oneBitCoder) recover(bit float64) float64 {
	m, e := c.m, c.e
	switch bit {
	case 1:
		return (m.B-m.A)/2*(e+1)/(e-1) + (m.A+m.B)/2
	case 0:
		return (m.A-m.B)/2*(e+1)/(e-1) + (m.A+m.B)/2
	case 0.5:
		return (m.A + m.B) / 2
	default:
		panic(fmt.Sprintf("ldp: encoded bit %v not in {0, 0.5, 1}", bit))
	}
}

// NotTransmitted is the sentinel used for feature elements outside a
// receiver's bin.
const NotTransmitted = 0.5

// BinPartition randomly distributes d element indices into bins bins of
// near-equal size (sizes differ by at most one), returning bin → element
// indices. Every element lands in exactly one bin, so across all neighbors
// the full feature is transmitted exactly once (paper: "Distributing
// encoded elements ensures that all the feature information are sent to one
// of its neighbors"). Near-equal sizes keep Theorem 4's composition
// accounting (d/wl elements per recipient at ε·wl/d each) exact.
func BinPartition(d, bins int, rng *rand.Rand) [][]int {
	if bins <= 0 {
		panic(fmt.Sprintf("ldp: BinPartition with %d bins", bins))
	}
	perm := rng.Perm(d)
	out := make([][]int, bins)
	for i, idx := range perm {
		k := i % bins
		out[k] = append(out[k], idx)
	}
	return out
}

// FeatureEncoder is Lumos's embedding-initialization encoder for one device:
// the total budget Epsilon is spread as ε·wl/d per transmitted element, the
// d elements are partitioned into wl bins, and neighbor k receives only the
// elements of bin k (others set to NotTransmitted).
type FeatureEncoder struct {
	Epsilon  float64 // total budget ε
	A, B     float64
	Workload int // wl(u): number of neighbors retained after trimming
	Dim      int // d: feature dimensionality
}

// PerElementEps returns ε·wl/d, the budget each transmitted element gets.
func (f FeatureEncoder) PerElementEps() float64 {
	return f.Epsilon * float64(f.Workload) / float64(f.Dim)
}

// Validate checks encoder parameters.
func (f FeatureEncoder) Validate() error {
	if f.Workload <= 0 {
		return fmt.Errorf("ldp: feature encoder needs workload ≥ 1, got %d", f.Workload)
	}
	if f.Dim <= 0 {
		return fmt.Errorf("ldp: feature encoder needs dim ≥ 1, got %d", f.Dim)
	}
	return OneBit{Eps: f.PerElementEps(), A: f.A, B: f.B}.Validate()
}

// Encode produces the wl per-neighbor encoded vectors for feature x.
// Each vector has length d with entries in {0, NotTransmitted, 1}.
func (f FeatureEncoder) Encode(x []float64, rng *rand.Rand) ([][]float64, error) {
	if len(x) != f.Dim {
		return nil, fmt.Errorf("ldp: feature length %d, encoder dim %d", len(x), f.Dim)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	ob := OneBit{Eps: f.PerElementEps(), A: f.A, B: f.B}.coder()
	bins := BinPartition(f.Dim, f.Workload, rng)
	out := make([][]float64, f.Workload)
	for k := range out {
		enc := make([]float64, f.Dim)
		for i := range enc {
			enc[i] = NotTransmitted
		}
		for _, i := range bins[k] {
			enc[i] = ob.encode(x[i], rng)
		}
		out[k] = enc
	}
	return out, nil
}

// Recover maps one received encoded vector to its unbiased estimate
// (Eq. 27); run by the *receiving* device, which knows the public protocol
// parameters (ε, wl of the sender, d, [a,b]) but not the raw feature.
func (f FeatureEncoder) Recover(enc []float64) ([]float64, error) {
	if len(enc) != f.Dim {
		return nil, fmt.Errorf("ldp: encoded length %d, encoder dim %d", len(enc), f.Dim)
	}
	ob := OneBit{Eps: f.PerElementEps(), A: f.A, B: f.B}.coder()
	out := make([]float64, f.Dim)
	for i, b := range enc {
		out[i] = ob.recover(b)
	}
	return out, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
