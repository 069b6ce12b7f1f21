package autodiff

import (
	"fmt"

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

// ScatterAddN sums row-sparse parts into one dense rows×cols matrix: starting
// from zero, out.Row(dst[k][i]) += parts[k].Row(src[k][i]), for k ascending
// and then i ascending. A nil src, or a nil src[k], reads every row of the
// part in order (src[k][i] = i), so dst[k] then names one output row per
// part row; a non-nil src[k] reads only the rows it lists, which is how a
// caller combines just the output rows it will use. Per output row the
// terms land in the order the AddN oracle (oracles_test.go) would add the
// same parts in had each first been padded to rows×cols with zero rows.
// Adding those zeros is exact, so the result is bit-identical to that dense
// sum with one exception: every entry is accumulated onto +0, so an entry
// whose terms are all −0.0 comes out +0.0 (the canonicalization
// CSRAggregateInto documents), where AddN, which copies its first term,
// would have kept −0.0. Rows no list names stay zero; a destination may
// repeat across parts and within one.
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
	out := t.node(data, opScatterAddN, parts...)
	out.rowSrc, out.rowDst = src, dst
	return out
}

var opScatterAddN = &op{back: backScatterAddN}

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
// (and the per-segment summation order) comes from csr, and coef holds one
// coefficient per edge. No per-edge message matrix is ever materialized, in
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
	out := t.node(data, opCSRAggregate, a)
	out.csr = csr
	out.fs = coef
	return out
}

var opCSRAggregate = &op{back: backCSRAggregate}

func backCSRAggregate(v *Value) {
	tensor.CSRAggregateBackward(v.parents[0].EnsureGrad(), v.Grad, v.csr, v.fs)
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
	out := t.node(data, opPairDot, a)
	out.ints = idxU
	out.ints2 = idxV
	return out
}

var opPairDot = &op{back: backPairDot, readsIn: true}

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
