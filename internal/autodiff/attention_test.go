package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lumos/internal/tensor"
)

// gatCSR is a square graph over 5 vertices with an empty segment (2), a
// repeated source (1), a duplicate edge (1→0 twice) and self-loops — the
// gradCSR shape, over the rows a GAT layer's projections have.
var gatCSR = tensor.NewCSR(5, []int{0, 1, 1, 3, 4, 1, 2, 4, 0}, []int{0, 0, 1, 1, 3, 0, 3, 4, 4})

// gatAttentionChain is the per-head chain of library ops GATAttention
// replaced, kept as its oracle: per head the two score products, the
// gathered edge scores, LeakyReLU, the per-destination softmax and the
// α-weighted aggregation, then the heads concatenated or averaged.
func gatAttentionChain(wh, aL, aR []*Value, csr *tensor.CSR, slope float64, concat bool) *Value {
	outs := make([]*Value, len(wh))
	for h := range wh {
		sl := MatMul(wh[h], aL[h])
		sr := MatMul(wh[h], aR[h])
		e := LeakyReLU(Add(Gather(sl, csr.Src), Gather(sr, csr.Dst)), slope)
		alpha := SegmentSoftmax(e, csr.Dst, csr.NSeg)
		outs[h] = CSRAggregateMul(wh[h], alpha, csr)
	}
	if concat {
		return ConcatCols(outs...)
	}
	return Scale(AddN(outs...), 1/float64(len(wh)))
}

// randSquareCSR returns a random graph over n vertices with m edges plus a
// self-loop on every vertex but the last, so the last segment may be
// empty.
func randSquareCSR(n, m int, rng *rand.Rand) *tensor.CSR {
	var src, dst []int
	for e := 0; e < m; e++ {
		src = append(src, rng.Intn(n))
		dst = append(dst, rng.Intn(n-1))
	}
	for v := 0; v < n-1; v++ {
		src = append(src, v)
		dst = append(dst, v)
	}
	return tensor.NewCSR(n, src, dst)
}

// randProjection is randMatrix with every other exact zero negative, as a
// product over a ReLU output can be.
func randProjection(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := randMatrix(rows, cols, rng)
	neg := false
	for i, x := range m.Data() {
		if x == 0 {
			if neg {
				m.Data()[i] = math.Copysign(0, -1)
			}
			neg = !neg
		}
	}
	return m
}

// TestGATAttentionMatchesPerHeadOracle compares GATAttention with the
// per-head chain bit for bit: the forward output and the gradient of every
// projection and attention vector, for one and four heads, concatenated
// and averaged. Projections hold exact zeros of both signs, the
// graphs have empty segments, repeated sources and duplicate edges, and
// the attention vectors are parameters (off any tape), as in a layer. A
// second pass takes the projections as constants, so only the attention
// vectors receive gradients.
func TestGATAttentionMatchesPerHeadOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	graphs := []*tensor.CSR{gatCSR, randSquareCSR(12, 40, rng), randSquareCSR(30, 0, rng)}
	for gi, csr := range graphs {
		for _, heads := range []int{1, 4} {
			for _, concat := range []bool{true, false} {
				for _, constWh := range []bool{false, true} {
					name := fmt.Sprintf("graph %d, %d heads, concat %v, const projections %v", gi, heads, concat, constWh)
					const d = 5
					whData := make([]*tensor.Matrix, heads)
					aLData := make([]*tensor.Matrix, heads)
					aRData := make([]*tensor.Matrix, heads)
					for h := range heads {
						whData[h] = randProjection(csr.NSeg, d, rng)
						aLData[h] = randMatrix(d, 1, rng)
						aRData[h] = randMatrix(d, 1, rng)
					}
					cols := d
					if concat {
						cols = heads * d
					}
					seed := randMatrix(csr.NSeg, cols, rng)

					record := func(op func(wh, aL, aR []*Value, csr *tensor.CSR, slope float64, concat bool) *Value) (out *Value, wh, aL, aR []*Value) {
						tp := NewTape()
						for h := range heads {
							if constWh {
								wh = append(wh, tp.Const(whData[h].Clone()))
							} else {
								wh = append(wh, tp.Var(whData[h].Clone()))
							}
							aL = append(aL, Var(aLData[h].Clone()))
							aR = append(aR, Var(aRData[h].Clone()))
						}
						out = op(wh, aL, aR, csr, 0.2, concat)
						out.BackwardWithGradient(seed.Clone())
						return out, wh, aL, aR
					}
					ref, whRef, aLRef, aRRef := record(gatAttentionChain)
					fus, whFus, aLFus, aRFus := record(GATAttention)

					requireBits(t, name+": forward", ref.Data, fus.Data)
					for h := range heads {
						if constWh {
							if whFus[h].Grad != nil {
								t.Fatalf("%s: constant projection %d received a gradient", name, h)
							}
						} else {
							requireBits(t, fmt.Sprintf("%s: dL/dwh[%d]", name, h), whRef[h].Grad, whFus[h].Grad)
						}
						requireBits(t, fmt.Sprintf("%s: dL/daL[%d]", name, h), aLRef[h].Grad, aLFus[h].Grad)
						requireBits(t, fmt.Sprintf("%s: dL/daR[%d]", name, h), aRRef[h].Grad, aRFus[h].Grad)
					}
				}
			}
		}
	}
}

// TestGATAttentionTapedSteadyState records the op on a warm tape, the way
// every epoch after the first does, and requires it to allocate nothing.
func TestGATAttentionTapedSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	const heads, d = 4, 5
	var whData, aLData, aRData [heads]*tensor.Matrix
	for h := range heads {
		whData[h] = randMatrix(gatCSR.NSeg, d, rng)
		aLData[h] = randMatrix(d, 1, rng)
		aRData[h] = randMatrix(d, 1, rng)
	}
	var aL, aR [heads]*Value
	for h := range heads {
		aL[h], aR[h] = Var(aLData[h]), Var(aRData[h])
	}
	seed := randMatrix(gatCSR.NSeg, heads*d, rng)
	tp := NewTape()
	epoch := func() {
		tp.Reset()
		var wh [heads]*Value
		for h := range heads {
			wh[h] = tp.Var(whData[h])
		}
		GATAttention(wh[:], aL[:], aR[:], gatCSR, 0.2, true).BackwardWithGradient(seed)
		for h := range heads {
			aL[h].ZeroGrad()
			aR[h].ZeroGrad()
		}
	}
	epoch()
	if allocs := testing.AllocsPerRun(10, epoch); allocs != 0 {
		t.Fatalf("a warm tape records GATAttention with %.0f allocations, want 0", allocs)
	}
}
