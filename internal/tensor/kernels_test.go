package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel-equivalence property tests: the blocked kernels must match the
// scalar reference kernels bit for bit (==, not ApproxEqual) over randomized
// shapes, including degenerate 1×N / N×1 / empty dimensions and inputs
// salted with exact ±0 entries (the only values where the two take
// different instruction sequences).
//
// The reference kernels below are the original straight-line loops the
// blocked kernels replaced. They live here, as test oracles only; the golden
// loss traces in internal/core and internal/sim were recorded on them.

// matMulRows is the scalar reference kernel for rows [lo, hi) of
// out += a·b: an ikj loop order for cache-friendly access to b and out rows,
// with a per-element sparsity skip on a.
func matMulRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulNTRows is the scalar reference kernel for rows [lo, hi) of
// dst += a·bᵀ: one dot product at a time, j ascending.
func matMulNTRows(a, b, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < b.rows; k++ {
			brow := b.Row(k)
			s := 0.0
			for j, av := range arow {
				s += av * brow[j]
			}
			drow[k] += s
		}
	}
}

// matMulTNRows is the scalar reference kernel for dst rows [lo, hi) of
// dst += aᵀ·b: rank-1 updates with a per-element sparsity branch, i ascending
// for every entry.
func matMulTNRows(a, b, dst *Matrix, lo, hi int) {
	for i := 0; i < a.rows; i++ {
		arow, brow := a.Row(i), b.Row(i)
		for k := lo; k < hi; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			drow := dst.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// saltedMatrix fills a rows×cols matrix with random values, forcing ~30% of
// entries to exact zero (half of those −0) to exercise the sparsity
// branches.
func saltedMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	d := m.Data()
	for i := range d {
		switch r := rng.Float64(); {
		case r < 0.15:
			d[i] = 0
		case r < 0.30:
			d[i] = math.Copysign(0, -1)
		default:
			d[i] = rng.NormFloat64()
		}
	}
	return m
}

// positiveSalted is saltedMatrix without −0 entries, for accumulation
// destinations: real gradient buffers can never hold −0 (they start at +0
// and only receive +=), and only a destination without −0 runs TN's vector
// path, which adds the ±0 terms the oracle skips.
func positiveSalted(rows, cols int, rng *rand.Rand) *Matrix {
	m := saltedMatrix(rows, cols, rng)
	d := m.Data()
	for i := range d {
		if d[i] == 0 {
			d[i] = 0 // normalizes −0 to +0
		}
	}
	return m
}

func requireBitIdentical(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: entry %d differs: %x vs %x (%v vs %v)",
				name, i, math.Float64bits(wd[i]), math.Float64bits(gd[i]), wd[i], gd[i])
		}
	}
}

// kernelShapes yields the randomized (m, k, n) triples shared by the matmul
// equivalence tests: every combination of edge sizes around the block
// boundaries, the model shapes the bench/ workloads run, plus random
// rectangles.
func kernelShapes(rng *rand.Rand) [][3]int {
	edge := []int{1, 2, 3, 5, 8, 9, 16, 17, 31, 64}
	shapes := [][3]int{
		{1, 1, 1}, {1, 300, 1}, {1, 7, 40}, {40, 7, 1}, // 1×N and N×1 extremes
		{3, 0, 4}, {0, 5, 3}, {4, 5, 0}, // empty dimensions
		{33, 257, 9}, {5, 512, 8}, {2, 259, 17}, // deep reductions, past 256
		// rows × in-width × hidden of the benchmark's models: GCN and GAT
		// input layers, one Shards=N shard, the 16×16 hidden layer.
		{600, 118, 16}, {600, 128, 16}, {28, 96, 16}, {600, 16, 16},
	}
	for i := 0; i < 24; i++ {
		shapes = append(shapes, [3]int{
			edge[rng.Intn(len(edge))],
			edge[rng.Intn(len(edge))],
			edge[rng.Intn(len(edge))],
		})
	}
	return shapes
}

func TestKernelEquivalenceMatMul(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, sh := range kernelShapes(rng) {
			m, k, n := sh[0], sh[1], sh[2]
			a := saltedMatrix(m, k, rng)
			b := saltedMatrix(k, n, rng)

			ref := New(m, n)
			matMulRows(a, b, ref, 0, m)
			blk := New(m, n)
			matMulRowsBlocked(a, b, blk, 0, m)
			requireBitIdentical(t, "matMulRowsBlocked", ref, blk)

			// MatMulInto must yield the product regardless of dst's prior
			// contents (the kernel overwrites).
			into := saltedMatrix(m, n, rng)
			MatMulInto(into, a, b)
			requireBitIdentical(t, "MatMulInto", ref, into)
		}
	})
}

func TestKernelEquivalenceMatMulNT(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, sh := range kernelShapes(rng) {
			m, w, k := sh[0], sh[1], sh[2]
			a := saltedMatrix(m, w, rng)
			b := saltedMatrix(k, w, rng)
			seed := saltedMatrix(m, k, rng) // NT has no sparsity skip: any dst is fair

			ref := seed.Clone()
			matMulNTRows(a, b, ref, 0, m)
			blk := seed.Clone()
			matMulNTRowsBlocked(a, b, blk, 0, m)
			requireBitIdentical(t, "matMulNTRowsBlocked", ref, blk)

			via := seed.Clone()
			MatMulNTAddInto(via, a, b)
			requireBitIdentical(t, "MatMulNTAddInto", ref, via)
		}
	})
}

func TestKernelEquivalenceMatMulTN(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for _, sh := range kernelShapes(rng) {
			m, k, n := sh[0], sh[1], sh[2]
			a := saltedMatrix(m, k, rng)
			b := saltedMatrix(m, n, rng)
			seed := positiveSalted(k, n, rng)

			ref := seed.Clone()
			matMulTNRows(a, b, ref, 0, k)
			blk := seed.Clone()
			matMulTNRowsBlocked(a, b, blk, 0, k)
			requireBitIdentical(t, "matMulTNRowsBlocked", ref, blk)

			via := seed.Clone()
			MatMulTNAddInto(via, a, b)
			requireBitIdentical(t, "MatMulTNAddInto", ref, via)
		}
	})
}

// randomEdges draws m random edges into nseg segments from nsrc source rows,
// leaving some segments empty and some sources isolated by construction.
func randomEdges(nsrc, nseg, m int, rng *rand.Rand) (src, dst []int) {
	src = make([]int, m)
	dst = make([]int, m)
	for e := 0; e < m; e++ {
		src[e] = rng.Intn(nsrc)
		dst[e] = rng.Intn(nseg)
	}
	return src, dst
}

// TestCSRAggregateKernelMatchesScatter checks the raw CSR forward kernel
// against the unfused Gather→scale→ScatterAddRows sequence, bit for bit,
// over random graphs including empty segments and isolated nodes.
func TestCSRAggregateKernelMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cases := []struct{ nsrc, nseg, m, c int }{
		{1, 1, 1, 1}, {1, 5, 4, 3}, {8, 3, 20, 16}, {30, 40, 12, 7},
		{16, 16, 0, 5}, {6, 9, 200, 16}, {50, 50, 120, 1},
	}
	for _, tc := range cases {
		src, dst := randomEdges(tc.nsrc, tc.nseg, tc.m, rng)
		a := saltedMatrix(tc.nsrc, tc.c, rng)
		coef := make([]float64, tc.m)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		csr := NewCSR(tc.nseg, src, dst)

		// Unfused: materialize the scaled message matrix, then scatter.
		msg := gather(a, src)
		for e := 0; e < tc.m; e++ {
			row := msg.Row(e)
			for j := range row {
				row[j] = coef[e] * row[j]
			}
		}
		want := New(tc.nseg, tc.c)
		ScatterAddRows(want, msg, dst)

		// The kernel overwrites: a garbage-prefilled dst must still yield
		// the aggregation (empty segments zeroed, −0 first terms
		// canonicalized to +0 like the unfused chain's +0 accumulators).
		got := saltedMatrix(tc.nseg, tc.c, rng)
		CSRAggregateInto(got, a, csr, coef)
		requireBitIdentical(t, "CSRAggregateInto", want, got)
	}
}

// TestCSRKernelsRequireCoef: every aggregation is weighted, so both CSR
// kernels refuse a nil or short coefficient slice instead of reading it as
// all ones.
func TestCSRKernelsRequireCoef(t *testing.T) {
	src, dst := []int{0, 1, 1}, []int{1, 0, 1}
	csr := NewCSR(2, src, dst)
	a := Full(2, 3, 1)
	for _, coef := range [][]float64{nil, {1, 1}} {
		func() {
			defer expectPanic(t, fmt.Sprintf("CSRAggregateInto with %d coefficients", len(coef)))
			CSRAggregateInto(New(2, 3), a, csr, coef)
		}()
		func() {
			defer expectPanic(t, fmt.Sprintf("CSRAggregateBackward with %d coefficients", len(coef)))
			CSRAggregateBackward(New(2, 3), a, src, dst, coef)
		}()
	}
}

// TestCSRGroupingStable pins the CSR layout contract: slots grouped by
// destination, original edge order within each segment, empty segments
// skipped.
func TestCSRGroupingStable(t *testing.T) {
	//            e0     e1     e2     e3     e4
	src := []int{3, 1, 4, 1, 5}
	dst := []int{2, 0, 2, 2, 0}
	csr := NewCSR(4, src, dst)
	if csr.NSeg != 4 || csr.NumEdges() != 5 {
		t.Fatalf("NSeg=%d NumEdges=%d", csr.NSeg, csr.NumEdges())
	}
	wantSegs := []int{0, 2}
	wantStarts := []int{0, 2, 5}
	wantSrcs := []int{1, 5, 3, 4, 1}  // seg 0: e1,e4; seg 2: e0,e2,e3
	wantEdges := []int{1, 4, 0, 2, 3} // ascending within each segment
	for i, v := range wantSegs {
		if csr.Segs[i] != v {
			t.Fatalf("Segs=%v want %v", csr.Segs, wantSegs)
		}
	}
	for i, v := range wantStarts {
		if csr.Starts[i] != v {
			t.Fatalf("Starts=%v want %v", csr.Starts, wantStarts)
		}
	}
	for i := range wantSrcs {
		if csr.Srcs[i] != wantSrcs[i] || csr.Edges[i] != wantEdges[i] {
			t.Fatalf("Srcs=%v Edges=%v want %v %v", csr.Srcs, csr.Edges, wantSrcs, wantEdges)
		}
	}
}
