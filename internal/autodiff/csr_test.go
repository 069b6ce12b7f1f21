package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lumos/internal/tensor"
)

// These tests pin the fused CSRAggregate / CSRAggregateMul ops to the unfused
// Gather→scaleRows/mulRowsByCol→segmentSum chains they replaced: forward data
// AND backward gradients must match bit for bit on random graphs, including
// empty segments, isolated nodes, duplicate edges, m=0 and n=1.
//
// The three unfused ops below are those chains' original implementations.
// Nothing in production calls them any more; they live here as the oracle
// (and keep their own finite-difference checks in autodiff_test.go).

// segmentSum returns the nseg×c matrix whose row s is the sum of the rows i
// of a with seg[i] == s.
func segmentSum(a *Value, seg []int, nseg int) *Value {
	if len(seg) != a.Data.Rows() {
		panic(fmt.Sprintf("autodiff: segmentSum %d segments for %d rows", len(seg), a.Data.Rows()))
	}
	t := tapeFor("segmentSum", a)
	data := t.Matrix(nseg, a.Data.Cols())
	tensor.ScatterAddRows(data, a.Data, seg)
	out := t.node(data, backSegmentSum, a)
	out.ints = seg
	return out
}

func backSegmentSum(v *Value) {
	g := v.parents[0].EnsureGrad()
	for i, s := range v.ints {
		grow, orow := g.Row(i), v.Grad.Row(s)
		for j := range grow {
			grow[j] += orow[j]
		}
	}
}

// scaleRows multiplies row i of a by the constant coef[i].
func scaleRows(a *Value, coef []float64) *Value {
	if len(coef) != a.Data.Rows() {
		panic(fmt.Sprintf("autodiff: scaleRows %d coefs for %d rows", len(coef), a.Data.Rows()))
	}
	t := tapeFor("scaleRows", a)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	for i := 0; i < a.Data.Rows(); i++ {
		row, orow := a.Data.Row(i), data.Row(i)
		for j := range row {
			orow[j] = coef[i] * row[j]
		}
	}
	out := t.node(data, backScaleRows, a)
	out.fs = coef
	return out
}

func backScaleRows(v *Value) {
	g := v.parents[0].EnsureGrad()
	for i := 0; i < g.Rows(); i++ {
		grow, orow := g.Row(i), v.Grad.Row(i)
		ci := v.fs[i]
		for j := range grow {
			grow[j] += ci * orow[j]
		}
	}
}

// mulRowsByCol multiplies row i of a (n×c) by s.At(i,0), where s is an n×1
// differentiable column; used for attention-weighted messages.
func mulRowsByCol(a, s *Value) *Value {
	n, c := a.Data.Dims()
	if s.Data.Rows() != n || s.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: mulRowsByCol a %dx%d s %dx%d", n, c, s.Data.Rows(), s.Data.Cols()))
	}
	t := tapeFor("mulRowsByCol", a, s)
	data := t.scratch(n, c)
	for i := 0; i < n; i++ {
		si := s.Data.At(i, 0)
		row, orow := a.Data.Row(i), data.Row(i)
		for j := range row {
			orow[j] = si * row[j]
		}
	}
	return t.node(data, backMulRowsByCol, a, s)
}

func backMulRowsByCol(v *Value) {
	a, s := v.parents[0], v.parents[1]
	n := a.Data.Rows()
	if a.requiresGrad {
		g := a.EnsureGrad()
		for i := 0; i < n; i++ {
			si := s.Data.At(i, 0)
			grow, orow := g.Row(i), v.Grad.Row(i)
			for j := range grow {
				grow[j] += si * orow[j]
			}
		}
	}
	if s.requiresGrad {
		g := s.EnsureGrad()
		for i := 0; i < n; i++ {
			arow, orow := a.Data.Row(i), v.Grad.Row(i)
			d := 0.0
			for j := range arow {
				d += arow[j] * orow[j]
			}
			g.Set(i, 0, g.At(i, 0)+d)
		}
	}
}

type csrCase struct {
	nsrc, nseg, m, c int
}

var csrCases = []csrCase{
	{1, 1, 1, 1},     // single node, self edge
	{1, 1, 4, 3},     // duplicate edges onto one segment
	{5, 8, 0, 4},     // no edges at all: every segment empty
	{8, 5, 30, 16},   // more edges than nodes, some sources repeated
	{40, 40, 25, 7},  // sparse: most segments empty, most nodes isolated
	{6, 3, 64, 1},    // single feature column
	{16, 31, 200, 9}, // dense fan-in
}

func randGraph(tc csrCase, rng *rand.Rand) (src, dst []int, coef []float64) {
	src = make([]int, tc.m)
	dst = make([]int, tc.m)
	coef = make([]float64, tc.m)
	for e := 0; e < tc.m; e++ {
		src[e] = rng.Intn(tc.nsrc)
		dst[e] = rng.Intn(tc.nseg)
		coef[e] = rng.NormFloat64()
	}
	return src, dst, coef
}

func randMatrix(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(rows, cols)
	d := m.Data()
	for i := range d {
		if rng.Float64() < 0.2 {
			d[i] = 0 // exercise the sparsity-sensitive corners
		} else {
			d[i] = rng.NormFloat64()
		}
	}
	return m
}

func requireBits(t *testing.T, name string, want, got *tensor.Matrix) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: nil matrix (want %v, got %v)", name, want != nil, got != nil)
	}
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: entry %d: %v vs %v (bits %x vs %x)",
				name, i, wd[i], gd[i], math.Float64bits(wd[i]), math.Float64bits(gd[i]))
		}
	}
}

// TestCSRAggregateMatchesUnfused compares the fused GCN-style aggregation
// (scalar edge coefficients) against scaleRows(Gather(a))→segmentSum.
func TestCSRAggregateMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range csrCases {
		src, dst, coef := randGraph(tc, rng)
		csr := tensor.NewCSR(tc.nseg, src, dst)
		aData := randMatrix(tc.nsrc, tc.c, rng)
		seed := randMatrix(tc.nseg, tc.c, rng)

		aRef := NewTape().Var(aData.Clone())
		ref := segmentSum(scaleRows(Gather(aRef, src), coef), dst, tc.nseg)
		ref.BackwardWithGradient(seed.Clone())

		aFus := NewTape().Var(aData.Clone())
		fus := CSRAggregate(aFus, csr, coef)
		fus.BackwardWithGradient(seed.Clone())

		requireBits(t, "CSRAggregate forward", ref.Data, fus.Data)
		requireBits(t, "CSRAggregate dL/da", aRef.Grad, aFus.Grad)

		// Unweighted (coef nil) against a bare Gather→segmentSum chain.
		aRefU := NewTape().Var(aData.Clone())
		refU := segmentSum(Gather(aRefU, src), dst, tc.nseg)
		refU.BackwardWithGradient(seed.Clone())
		aFusU := NewTape().Var(aData.Clone())
		fusU := CSRAggregate(aFusU, csr, nil)
		fusU.BackwardWithGradient(seed.Clone())
		requireBits(t, "CSRAggregate nil-coef forward", refU.Data, fusU.Data)
		requireBits(t, "CSRAggregate nil-coef dL/da", aRefU.Grad, aFusU.Grad)
	}
}

// TestCSRAggregateMulMatchesUnfused compares the fused GAT-style aggregation
// (learned per-edge weight column) against mulRowsByCol(Gather(a), w)→
// segmentSum, checking both the feature gradient and the edge-weight
// gradient.
func TestCSRAggregateMulMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, tc := range csrCases {
		src, dst, _ := randGraph(tc, rng)
		csr := tensor.NewCSR(tc.nseg, src, dst)
		aData := randMatrix(tc.nsrc, tc.c, rng)
		wData := randMatrix(tc.m, 1, rng)
		seed := randMatrix(tc.nseg, tc.c, rng)

		refTape := NewTape()
		aRef, wRef := refTape.Var(aData.Clone()), refTape.Var(wData.Clone())
		ref := segmentSum(mulRowsByCol(Gather(aRef, src), wRef), dst, tc.nseg)
		ref.BackwardWithGradient(seed.Clone())

		fusTape := NewTape()
		aFus, wFus := fusTape.Var(aData.Clone()), fusTape.Var(wData.Clone())
		fus := CSRAggregateMul(aFus, wFus, csr)
		fus.BackwardWithGradient(seed.Clone())

		requireBits(t, "CSRAggregateMul forward", ref.Data, fus.Data)
		requireBits(t, "CSRAggregateMul dL/da", aRef.Grad, aFus.Grad)
		if tc.m > 0 {
			requireBits(t, "CSRAggregateMul dL/dw", wRef.Grad, wFus.Grad)
		}
	}
}

// TestCSRAggregateConstInput checks that aggregation over a non-grad input
// (e.g. the frozen layer-0 features) still produces the right forward data
// and no gradient, on both ops.
func TestCSRAggregateConstInput(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tc := csrCase{10, 6, 24, 5}
	src, dst, coef := randGraph(tc, rng)
	csr := tensor.NewCSR(tc.nseg, src, dst)
	aData := randMatrix(tc.nsrc, tc.c, rng)
	seed := randMatrix(tc.nseg, tc.c, rng)

	aRef := NewTape().Const(aData.Clone())
	ref := segmentSum(scaleRows(Gather(aRef, src), coef), dst, tc.nseg)
	aFus := NewTape().Const(aData.Clone())
	fus := CSRAggregate(aFus, csr, coef)
	requireBits(t, "const forward", ref.Data, fus.Data)
	if fus.RequiresGrad() {
		t.Fatal("aggregate of a const should not require grad")
	}

	// Mixed case: const features, learned edge weights (parameters).
	wData := randMatrix(tc.m, 1, rng)
	wRef := Var(wData.Clone())
	refM := segmentSum(mulRowsByCol(Gather(NewTape().Const(aData.Clone()), src), wRef), dst, tc.nseg)
	refM.BackwardWithGradient(seed.Clone())
	wFus := Var(wData.Clone())
	fusM := CSRAggregateMul(aFus, wFus, csr)
	fusM.BackwardWithGradient(seed.Clone())
	requireBits(t, "mixed forward", refM.Data, fusM.Data)
	requireBits(t, "mixed dL/dw", wRef.Grad, wFus.Grad)
	if aFus.Grad != nil {
		t.Fatal("const input accumulated a gradient")
	}
}
