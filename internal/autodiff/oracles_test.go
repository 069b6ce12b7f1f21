package autodiff

import (
	"fmt"
	"math"
	"math/rand"

	"lumos/internal/tensor"
)

// The unfused ops. No production graph records them: a GNN layer's
// attention is GATAttention, its hidden activation BiasReLUDropout, its
// aggregation CSRAggregate and the forest pooling ScatterAddN. They are the
// chains those fused ops are checked against bit for bit, and the building
// blocks of the finite-difference table's scalars. Each keeps a row in
// gradTable, so the oracles stay gradient-checked too.

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	t := tapeFor("Add", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	addInto(data, a.Data, b.Data)
	return t.node(data, opFanIn, a, b)
}

// backFanIn adds the output gradient to every parent — the backward of Add
// and AddN.
var opFanIn = &op{back: backFanIn}

func backFanIn(v *Value) {
	for _, p := range v.parents {
		p.accum(v.Grad)
	}
}

// AddN sums any number of same-shape values.
func AddN(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("autodiff: AddN of nothing")
	}
	t := tapeFor("AddN", vs...)
	data := t.scratch(vs[0].Data.Rows(), vs[0].Data.Cols())
	data.CopyFrom(vs[0].Data)
	for _, v := range vs[1:] {
		tensor.AddInPlace(data, v.Data)
	}
	return t.node(data, opFanIn, vs...)
}

// Sub returns a − b (same shape).
func Sub(a, b *Value) *Value {
	t := tapeFor("Sub", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	subInto(data, a.Data, b.Data)
	return t.node(data, opSub, a, b)
}

var opSub = &op{back: backSub}

func backSub(v *Value) {
	a, b := v.parents[0], v.parents[1]
	a.accum(v.Grad)
	if b.requiresGrad {
		tensor.AddScaledInPlace(b.EnsureGrad(), -1, v.Grad)
	}
}

// MulElem returns the elementwise product a ⊙ b.
func MulElem(a, b *Value) *Value {
	t := tapeFor("MulElem", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	mulElemInto(data, a.Data, b.Data)
	return t.node(data, opMulElem, a, b)
}

var opMulElem = &op{back: backMulElem, readsIn: true}

func backMulElem(v *Value) {
	a, b := v.parents[0], v.parents[1]
	if a.requiresGrad {
		mulElemAddInto(a.EnsureGrad(), v.Grad, b.Data)
	}
	if b.requiresGrad {
		mulElemAddInto(b.EnsureGrad(), v.Grad, a.Data)
	}
}

// Scale returns s·a for a constant s.
func Scale(a *Value, s float64) *Value {
	t := tapeFor("Scale", a)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.ScaleInto(data, a.Data, s)
	out := t.node(data, opScale, a)
	out.s = s
	return out
}

var opScale = &op{back: backScale}

func backScale(v *Value) {
	tensor.AddScaledInPlace(v.parents[0].EnsureGrad(), v.s, v.Grad)
}

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	t := tapeFor("ReLU", a)
	data := t.Matrix(a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		}
	}
	return t.node(data, opReLU, a)
}

var opReLU = &op{back: backReLU, readsIn: true}

func backReLU(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	ad, od := a.Data.Data(), v.Grad.Data()
	for i := range ad {
		if ad[i] > 0 {
			gd[i] += od[i]
		}
	}
}

// LeakyReLU returns x for x>0 and slope·x otherwise, elementwise.
func LeakyReLU(a *Value, slope float64) *Value {
	t := tapeFor("LeakyReLU", a)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		} else {
			od[i] = slope * x
		}
	}
	out := t.node(data, opLeakyReLU, a)
	out.s = slope
	return out
}

var opLeakyReLU = &op{back: backLeakyReLU, readsIn: true}

func backLeakyReLU(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	ad, od := a.Data.Data(), v.Grad.Data()
	for i := range ad {
		if ad[i] > 0 {
			gd[i] += od[i]
		} else {
			gd[i] += v.s * od[i]
		}
	}
}

// Dropout zeroes entries with probability p and rescales survivors by
// 1/(1−p) when training is true; it is the identity otherwise.
func Dropout(a *Value, p float64, rng *rand.Rand, training bool) *Value {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autodiff: Dropout probability must be < 1")
	}
	t := tapeFor("Dropout", a)
	keep := 1 / (1 - p)
	mask := t.Matrix(a.Data.Rows(), a.Data.Cols())
	md := mask.Data()
	for i := range md {
		if rng.Float64() >= p {
			md[i] = keep
		}
	}
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	mulElemInto(data, a.Data, mask)
	out := t.node(data, opDropout, a)
	out.mat = mask
	return out
}

var opDropout = &op{back: backDropout}

func backDropout(v *Value) {
	mulElemAddInto(v.parents[0].EnsureGrad(), v.Grad, v.mat)
}

// Gather returns the matrix whose i-th row is a.Row(idx[i]).
func Gather(a *Value, idx []int) *Value {
	t := tapeFor("Gather", a)
	data := t.scratch(len(idx), a.Data.Cols())
	gatherInto(data, a.Data, idx)
	out := t.node(data, opGather, a)
	out.ints = idx
	return out
}

var opGather = &op{back: backGather}

func backGather(v *Value) {
	tensor.ScatterAddRows(v.parents[0].EnsureGrad(), v.Grad, v.ints)
}

// CSRAggregateMul is CSRAggregate with a differentiable per-edge weight: w
// is an NumEdges×1 column (attention coefficients). Both gradients flow;
// each is bit-identical to its counterpart in the unfused oracle chain.
func CSRAggregateMul(a, w *Value, csr *tensor.CSR) *Value {
	if w.Data.Rows() != csr.NumEdges() || w.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: CSRAggregateMul w %dx%d for %d edges",
			w.Data.Rows(), w.Data.Cols(), csr.NumEdges()))
	}
	t := tapeFor("CSRAggregateMul", a, w)
	data := t.scratch(csr.NSeg, a.Data.Cols())
	tensor.CSRAggregateInto(data, a.Data, csr, w.Data.Data())
	out := t.node(data, opCSRAggregateMul, a, w)
	out.csr = csr
	return out
}

var opCSRAggregateMul = &op{back: backCSRAggregateMul, readsIn: true}

// backCSRAggregateMul sums both gradients in ascending original edge order,
// the order the unfused chain's scatter and per-edge dot products run in:
// dL/da through the op's own backward kernel (each row of a's gradient
// receives its edges' terms in that order), and dL/dw[e] as the dot product
// of a.Row(src[e]) and the output gradient's row dst[e].
func backCSRAggregateMul(v *Value) {
	a, w := v.parents[0], v.parents[1]
	if a.requiresGrad {
		tensor.CSRAggregateBackward(a.EnsureGrad(), v.Grad, v.csr, w.Data.Data())
	}
	if w.requiresGrad {
		wGrad := w.EnsureGrad().Data()
		for e, se := range v.csr.Src {
			wGrad[e] += tensor.RowDot(a.Data, se, v.Grad, v.csr.Dst[e])
		}
	}
}

// SegmentSoftmax normalizes the n×1 column e with a numerically stable
// softmax within each segment: out_i = exp(e_i−m_s)/Σ_{j∈s} exp(e_j−m_s)
// for s = seg[i]. Rows whose segment has a single member get 1.
func SegmentSoftmax(e *Value, seg []int, nseg int) *Value {
	n := e.Data.Rows()
	if e.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: SegmentSoftmax on %dx%d (want n×1)", n, e.Data.Cols()))
	}
	if len(seg) != n {
		panic(fmt.Sprintf("autodiff: SegmentSoftmax %d segments for %d rows", len(seg), n))
	}
	t := tapeFor("SegmentSoftmax", e)
	maxes := t.scratch(nseg, 1).Data()
	for i := range maxes {
		maxes[i] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		if v := e.Data.At(i, 0); v > maxes[seg[i]] {
			maxes[seg[i]] = v
		}
	}
	sums := t.Matrix(nseg, 1).Data()
	data := t.scratch(n, 1)
	for i := 0; i < n; i++ {
		ex := math.Exp(e.Data.At(i, 0) - maxes[seg[i]])
		data.Set(i, 0, ex)
		sums[seg[i]] += ex
	}
	for i := 0; i < n; i++ {
		data.Set(i, 0, data.At(i, 0)/sums[seg[i]])
	}
	out := t.node(data, opSegmentSoftmax, e)
	out.ints = seg
	out.s = float64(nseg)
	return out
}

var opSegmentSoftmax = &op{back: backSegmentSoftmax, readsOut: true}

func backSegmentSoftmax(v *Value) {
	// dL/de_i = α_i (g_i − Σ_{j∈seg(i)} α_j g_j)
	e, seg, n := v.parents[0], v.ints, v.Data.Rows()
	dot := v.tape.Matrix(int(v.s), 1).Data()
	for i := 0; i < n; i++ {
		dot[seg[i]] += v.Data.At(i, 0) * v.Grad.At(i, 0)
	}
	g := e.EnsureGrad()
	for i := 0; i < n; i++ {
		ai := v.Data.At(i, 0)
		g.Set(i, 0, g.At(i, 0)+ai*(v.Grad.At(i, 0)-dot[seg[i]]))
	}
}

// ConcatCols concatenates values horizontally (same row count).
func ConcatCols(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("autodiff: ConcatCols of nothing")
	}
	t := tapeFor("ConcatCols", vs...)
	rows := vs[0].Data.Rows()
	cols := 0
	for _, v := range vs {
		if v.Data.Rows() != rows {
			panic(fmt.Sprintf("autodiff: ConcatCols rows %d vs %d", v.Data.Rows(), rows))
		}
		cols += v.Data.Cols()
	}
	data := t.scratch(rows, cols)
	off := 0
	for _, v := range vs {
		c := v.Data.Cols()
		for i := 0; i < rows; i++ {
			copy(data.Row(i)[off:off+c], v.Data.Row(i))
		}
		off += c
	}
	return t.node(data, opConcatCols, vs...)
}

var opConcatCols = &op{back: backConcatCols, readsIn: true}

func backConcatCols(v *Value) {
	off := 0
	for _, p := range v.parents {
		c := p.Data.Cols()
		if p.requiresGrad {
			g := p.EnsureGrad()
			for i := 0; i < g.Rows(); i++ {
				grow, orow := g.Row(i), v.Grad.Row(i)[off:off+c]
				for j := range grow {
					grow[j] += orow[j]
				}
			}
		}
		off += c
	}
}

// SumAll returns the sum of all entries as a 1×1 value.
func SumAll(a *Value) *Value {
	t := tapeFor("SumAll", a)
	data := t.scratch(1, 1)
	data.Set(0, 0, sumEntries(a.Data))
	return t.node(data, opSumAll, a)
}

var opSumAll = &op{back: backSumAll}

func backSumAll(v *Value) {
	addConstInPlace(v.parents[0].EnsureGrad(), v.Grad.At(0, 0))
}

// The oracles' elementwise kernels, over same-shape matrices: each entry is
// computed exactly as the one-loop kernel the ops called when they were
// production code.

func addInto(dst, a, b *tensor.Matrix) {
	d, ad, bd := dst.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] + bd[i]
	}
}

func subInto(dst, a, b *tensor.Matrix) {
	d, ad, bd := dst.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] - bd[i]
	}
}

func mulElemInto(dst, a, b *tensor.Matrix) {
	d, ad, bd := dst.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] * bd[i]
	}
}

func mulElemAddInto(dst, a, b *tensor.Matrix) {
	d, ad, bd := dst.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] += ad[i] * bd[i]
	}
}

func addConstInPlace(dst *tensor.Matrix, c float64) {
	d := dst.Data()
	for i := range d {
		d[i] += c
	}
}

func gatherInto(dst, a *tensor.Matrix, idx []int) {
	for i, r := range idx {
		copy(dst.Row(i), a.Row(r))
	}
}

func sumEntries(a *tensor.Matrix) float64 {
	s := 0.0
	for _, v := range a.Data() {
		s += v
	}
	return s
}
