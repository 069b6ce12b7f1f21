package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// weightedSumOracle is the one-pass-per-source loop WeightedSumInto
// replaced, kept as its oracle: the weight form stores w0·s0 then adds each
// later term in its own pass; the moment form zeroes dst and adds every term
// in its own pass.
func weightedSumOracle(dst *Matrix, srcs []*Matrix, ws []float64, fromZero bool) {
	od := dst.data
	first := 0
	if fromZero {
		dst.Zero()
	} else {
		for k := range od {
			od[k] = ws[0] * srcs[0].data[k]
		}
		first = 1
	}
	for j := first; j < len(srcs); j++ {
		AddScaledInPlace(dst, ws[j], srcs[j])
	}
}

// mixEntry draws one source entry: mostly normal values, salted with the
// entries where an operation-order change would show — exact ±0 and
// subnormals of both signs.
func mixEntry(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)+1)
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)+1)
	default:
		return rng.NormFloat64()
	}
}

// mixWeight draws a weight, sometimes ±0 or one small enough that its
// product with a subnormal underflows.
func mixWeight(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e-3 * rng.Float64()
	default:
		return rng.Float64()
	}
}

// The fused kernel matches the per-source oracle bit for bit for 1–10
// sources — every remainder of the 4-then-3 grouping, and one past the
// vector path's 8-source pass — in both start modes, over entries salted
// with ±0 and subnormals, including a source whose every product is −0, on
// lengths up to 85 (the vector path's 16- and 4-wide loops and Go tails).
func TestWeightedSumMatchesOracle(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(91))
		for ns := 1; ns <= 10; ns++ {
			for trial := 0; trial < 40; trial++ {
				rows, cols := 1+rng.Intn(5), 1+rng.Intn(17)
				srcs, ws := make([]*Matrix, ns), make([]float64, ns)
				for j := range srcs {
					srcs[j] = New(rows, cols)
					for k := range srcs[j].data {
						srcs[j].data[k] = mixEntry(rng)
					}
					ws[j] = mixWeight(rng)
				}
				if trial == 0 {
					// −0 everywhere in the first product, where the two start
					// modes differ.
					for k := range srcs[0].data {
						srcs[0].data[k] = math.Copysign(0, -1)
					}
					ws[0] = 0.5
				}
				for _, fromZero := range []bool{false, true} {
					got, want := Full(rows, cols, math.NaN()), Full(rows, cols, math.NaN())
					WeightedSumInto(got, srcs, ws, fromZero)
					weightedSumOracle(want, srcs, ws, fromZero)
					for k := range got.data {
						if math.Float64bits(got.data[k]) != math.Float64bits(want.data[k]) {
							t.Fatalf("%d sources, fromZero=%v, trial %d, entry %d: %v (%#x), oracle %v (%#x)",
								ns, fromZero, trial, k, got.data[k], math.Float64bits(got.data[k]),
								want.data[k], math.Float64bits(want.data[k]))
						}
					}
				}
			}
		}
	})
}

func TestWeightedSumPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"no sources":     func() { WeightedSumInto(New(1, 2), nil, nil, false) },
		"weight count":   func() { WeightedSumInto(New(1, 2), []*Matrix{New(1, 2)}, []float64{1, 2}, false) },
		"source shape":   func() { WeightedSumInto(New(1, 2), []*Matrix{New(1, 2), New(2, 1)}, []float64{1, 2}, true) },
		"SwapData shape": func() { New(1, 2).SwapData(New(2, 1)) },
	} {
		func() {
			defer expectPanic(t, name)
			f()
		}()
	}
}

// SwapData moves the arrays: every holder of either matrix sees the other's
// values, and nothing is copied.
func TestSwapData(t *testing.T) {
	a, b := FromRows([][]float64{{1, 2}}), FromRows([][]float64{{3, 4}})
	ad, bd := a.Data(), b.Data()
	a.SwapData(b)
	if &a.Data()[0] != &bd[0] || &b.Data()[0] != &ad[0] {
		t.Fatal("SwapData did not exchange the backing arrays")
	}
	if a.At(0, 1) != 4 || b.At(0, 0) != 1 {
		t.Fatalf("after swap a=%v b=%v", a, b)
	}
}
