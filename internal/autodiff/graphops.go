package autodiff

import (
	"fmt"
	"math"

	"lumos/internal/tensor"
)

// Graph-structured operations: gather/scatter over rows and per-segment
// reductions. These are the primitives message passing compiles to: an edge
// list (src, dst), grouped by destination into a tensor.CSR, turns
// "aggregate neighbor embeddings" into CSRAggregate(H, csr, coef).
//
// Index and coefficient slices passed to these ops are retained by
// reference until the owning tape is reset; they must stay unmodified for
// that long. The engine's per-shard index arrays
// are immutable after construction, so they are shared across all epochs.

// Gather returns the matrix whose i-th row is a.Row(idx[i]).
func Gather(a *Value, idx []int) *Value {
	t := tapeFor("Gather", a)
	data := t.scratch(len(idx), a.Data.Cols())
	tensor.GatherInto(data, a.Data, idx)
	out := t.node(data, backGather, a)
	out.ints = idx
	return out
}

func backGather(v *Value) {
	tensor.ScatterAddRows(v.parents[0].EnsureGrad(), v.Grad, v.ints)
}

// ScatterAddN sums row-sparse parts into one dense rows×cols matrix: starting
// from zero, out.Row(dst[k][i]) += parts[k].Row(src[k][i]), for k ascending
// and then i ascending. A nil src, or a nil src[k], reads every row of the
// part in order (src[k][i] = i), so dst[k] then names one output row per
// part row; a non-nil src[k] reads only the rows it lists, which is how a
// caller combines just the output rows it will use. Per output row the
// terms land in the order AddN would add the same parts in had each first
// been padded to rows×cols with zero rows. Adding those zeros is exact, so
// the result is bit-identical to that dense sum with one exception: every
// entry is accumulated onto +0, so an entry whose terms are all −0.0 comes
// out +0.0 (the canonicalization CSRAggregateInto documents), where AddN,
// which copies its first term, would have kept −0.0. Rows no list names
// stay zero; a destination may repeat across parts and within one.
//
// Backward gathers: parts[k].Grad.Row(src[k][i]) += out.Grad.Row(dst[k][i])
// for the parts that require a gradient — every such part receives a
// gradient, all zeros when its lists are empty. parts, src and dst are
// parallel; the outer slices and the row lists are retained by reference.
func ScatterAddN(rows int, parts []*Value, src, dst [][]int) *Value {
	if len(parts) != len(dst) || (src != nil && len(src) != len(dst)) {
		panic(fmt.Sprintf("autodiff: ScatterAddN %d parts for %d source and %d destination lists",
			len(parts), len(src), len(dst)))
	}
	if len(parts) == 0 {
		panic("autodiff: ScatterAddN of nothing")
	}
	t := tapeFor("ScatterAddN", parts...)
	data := t.Matrix(rows, parts[0].Data.Cols())
	for k, p := range parts {
		if src == nil || src[k] == nil {
			tensor.ScatterAddRows(data, p.Data, dst[k])
		} else {
			tensor.AddRowPairs(data, dst[k], p.Data, src[k])
		}
	}
	out := t.node(data, backScatterAddN, parts...)
	out.rowSrc, out.rowDst = src, dst
	return out
}

func backScatterAddN(v *Value) {
	for k, p := range v.parents {
		if !p.requiresGrad {
			continue
		}
		if v.rowSrc == nil || v.rowSrc[k] == nil {
			tensor.GatherAddRows(p.EnsureGrad(), v.Grad, v.rowDst[k])
		} else {
			tensor.AddRowPairs(p.EnsureGrad(), v.rowSrc[k], v.Grad, v.rowDst[k])
		}
	}
}

// CSRAggregate is neighborhood aggregation as one op: out.Row(s) =
// Σ_{edges e with dst[e]=s} coef[e]·a.Row(src[e]), where the edge grouping
// (and the per-segment summation order) comes from csr. coef may be nil for
// an unweighted sum. No per-edge message matrix is ever materialized, in
// either pass. Forward and backward are bit-identical to the three-op
// gather→scale-rows→segment-sum chain it replaced — csr stores slots in
// original edge order, the exact order that chain's scatter runs in — which
// csr_test.go keeps as the oracle. csr and coef are retained by reference.
func CSRAggregate(a *Value, csr *tensor.CSR, coef []float64) *Value {
	t := tapeFor("CSRAggregate", a)
	// The fused kernel overwrites every row, so a recycled (unzeroed) tape
	// buffer is fine here.
	data := t.scratch(csr.NSeg, a.Data.Cols())
	tensor.CSRAggregateInto(data, a.Data, csr, coef)
	out := t.node(data, backCSRAggregate, a)
	out.ints = csr.Src
	out.ints2 = csr.Dst
	out.fs = coef
	return out
}

func backCSRAggregate(v *Value) {
	tensor.CSRAggregateBackward(v.parents[0].EnsureGrad(), nil, nil, v.Grad, v.ints, v.ints2, v.fs)
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
	out := t.node(data, backCSRAggregateMul, a, w)
	out.ints = csr.Src
	out.ints2 = csr.Dst
	return out
}

func backCSRAggregateMul(v *Value) {
	a, w := v.parents[0], v.parents[1]
	var aGrad, wGrad *tensor.Matrix
	if a.requiresGrad {
		aGrad = a.EnsureGrad()
	}
	if w.requiresGrad {
		wGrad = w.EnsureGrad()
	}
	tensor.CSRAggregateBackward(aGrad, wGrad, a.Data, v.Grad, v.ints, v.ints2, w.Data.Data())
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
	out := t.node(data, backSegmentSoftmax, e)
	out.ints = seg
	out.n = nseg
	return out
}

func backSegmentSoftmax(v *Value) {
	// dL/de_i = α_i (g_i − Σ_{j∈seg(i)} α_j g_j)
	e, seg, n := v.parents[0], v.ints, v.Data.Rows()
	dot := v.tape.Matrix(v.n, 1).Data()
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
	return t.node(data, backConcatCols, vs...)
}

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

// PairDot returns the m×1 column whose k-th entry is the dot product of rows
// idxU[k] and idxV[k] of a. It backs the link-prediction decoder
// DEC(h_u, h_v) = h_u · h_v.
func PairDot(a *Value, idxU, idxV []int) *Value {
	if len(idxU) != len(idxV) {
		panic(fmt.Sprintf("autodiff: PairDot %d vs %d indices", len(idxU), len(idxV)))
	}
	m := len(idxU)
	t := tapeFor("PairDot", a)
	data := t.scratch(m, 1)
	for k := 0; k < m; k++ {
		data.Set(k, 0, tensor.RowDot(a.Data, idxU[k], a.Data, idxV[k]))
	}
	out := t.node(data, backPairDot, a)
	out.ints = idxU
	out.ints2 = idxV
	return out
}

func backPairDot(v *Value) {
	a := v.parents[0]
	g := a.EnsureGrad()
	for k := 0; k < len(v.ints); k++ {
		gk := v.Grad.At(k, 0)
		u, w := v.ints[k], v.ints2[k]
		gu, gv := g.Row(u), g.Row(w)
		au, av := a.Data.Row(u), a.Data.Row(w)
		for j := range gu {
			gu[j] += gk * av[j]
			gv[j] += gk * au[j]
		}
	}
}
