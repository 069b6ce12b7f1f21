package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The segment kernels — CSR aggregation by destination, its backward by
// source, and the two ConstSparse products — against scalar loops written
// here in the order the kernels promise, bit for bit, on both paths: at width
// 16 (the vector kernels where the CPU has AVX2) and at widths 8 and 17
// (which must fall back to the Go loops; a 16-wide kernel would write past
// a width-8 row and miss a width-17 row's last column). The inputs hold
// NaN, ±Inf, ±0 and thirds (sums that round, so a changed order shows).

// qnan is the NaN x86 arithmetic produces (0·Inf, Inf − Inf). The tests'
// NaN inputs use it too: when two NaNs with different payloads meet in an
// add or multiply, which payload survives depends on the operand order the
// compiler picked, on either path, and the payload carries nothing.
var qnan = math.Float64frombits(0xfff8_0000_0000_0000)

// segWidths are the row widths the segment tests run at.
var segWidths = []int{segWidth, 8, 17}

// specialMatrix is saltedMatrix with a NaN, ±Inf and a third sprinkled in:
// garbage for buffers a kernel overwrites.
func specialMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := saltedMatrix(rows, cols, rng)
	for i, v := range m.data {
		switch rng.Intn(40) {
		case 0:
			m.data[i] = qnan
		case 1:
			m.data[i] = math.Inf(1)
		case 2:
			m.data[i] = math.Inf(-1)
		case 3, 4, 5:
			m.data[i] = v / 3
		}
	}
	return m
}

// thirds is saltedMatrix with every value divided by 3: finite sums that
// round, so a changed order shows.
func thirds(rows, cols int, rng *rand.Rand) *Matrix {
	m := saltedMatrix(rows, cols, rng)
	for i, v := range m.data {
		m.data[i] = v / 3
	}
	return m
}

// segmentGraph is a CSR input with every shape the kernels branch on:
// empty segments (0, 3, 4), one-edge segments (2, 6, 7), a duplicate edge
// (e1, e2), a source with no edge (3), a segment whose one term is −0 (6:
// coefficient −1 on source 4's +0 row), one whose term is −0·1 (7: source
// 9's −0 row), non-finite terms (segment 5 reads NaN and ±Inf in sources 1,
// 7 and 10; e8 into segment 8 has an Inf coefficient), and long finite
// segments (1 and 9) from random edges over sources 0, 2, 5 and 8.
func segmentGraph(rng *rand.Rand) (src, dst []int, nseg, nsrc int) {
	src = []int{0, 2, 2, 5, 7, 10, 1, 4, 6, 8, 9, 0, 5}
	dst = []int{1, 1, 1, 2, 5, 5, 5, 6, 8, 8, 7, 8, 5}
	nseg, nsrc = 10, 11
	for range 60 {
		src = append(src, []int{0, 2, 5, 8}[rng.Intn(4)])
		dst = append(dst, []int{1, 9}[rng.Intn(2)])
	}
	return src, dst, nseg, nsrc
}

// segmentInputs returns the graph's rows (nsrc×d) and coefficients with the
// special values segmentGraph's comment names.
func segmentInputs(d, edges, nsrc int, rng *rand.Rand) (*Matrix, []float64) {
	a := thirds(nsrc, d, rng)
	clear(a.Row(4))
	for j := range a.Row(9) {
		a.Row(9)[j] = math.Copysign(0, -1)
	}
	a.Row(7)[2] = qnan
	a.Row(10)[3] = math.Inf(1)
	a.Row(1)[3] = math.Inf(-1)
	a.Row(1)[d-1] = qnan
	coef := thirds(1, edges, rng).data
	coef[7], coef[10], coef[8] = -1, 1, math.Inf(1)
	coef[4] = qnan // e4 reads source 7's NaN: NaN times NaN
	return a, coef
}

// aggregateLoops is the CSR forward the kernels promise: every output row
// starts at +0 and receives coef[e]·a.Row(src[e]) for e ascending.
func aggregateLoops(a *Matrix, src, dst []int, coef []float64, nseg int) *Matrix {
	out := New(nseg, a.cols)
	for e, s := range src {
		o, r := out.Row(dst[e]), a.Row(s)
		for j := range o {
			o[j] += float64(coef[e] * r[j])
		}
	}
	return out
}

// bySourceLoops is the backward the kernels promise: ag's row src[e] (d
// wide) receives coef[e]·g[dst[e]·ldg : +d] onto its values, e ascending.
func bySourceLoops(ag []float64, d int, g []float64, ldg int, src, dst []int, coef []float64) {
	for e, s := range src {
		for j := range d {
			ag[s*d+j] += float64(coef[e] * g[dst[e]*ldg+j])
		}
	}
}

func TestCSRSegmentKernelsMatchLoops(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		for _, d := range segWidths {
			src, dst, nseg, nsrc := segmentGraph(rng)
			csr := NewCSR(nseg, src, dst)
			a, coef := segmentInputs(d, len(src), nsrc, rng)
			name := fmt.Sprintf("width %d", d)

			want := aggregateLoops(a, src, dst, coef, nseg)
			got := specialMatrix(nseg, d, rng)
			CSRAggregateInto(got, a, csr, coef)
			requireBitIdentical(t, "CSRAggregateInto "+name, want, got)
			if v := got.At(6, 0); v != 0 || math.Signbit(v) {
				t.Fatalf("%s: a −0 first term gave %v, want +0", name, v)
			}

			// SegmentInto writes one segment into a row of any buffer.
			for si, s := range csr.Segs {
				row := specialMatrix(1, d, rng)
				csr.SegmentInto(row.data, si, a.data, coef)
				requireBitIdentical(t, fmt.Sprintf("SegmentInto %s segment %d", name, s),
					rowMatrix(want.Row(s)), row)
			}

			// The backward onto nonzero (and −0-holding) gradients: source
			// 3's row, which no edge leaves, keeps its values. Segment 5's
			// gradient row holds the non-finite values.
			g := thirds(nseg, d, rng)
			g.Row(5)[0], g.Row(5)[1] = qnan, math.Inf(-1)
			agWant := saltedMatrix(nsrc, d, rng)
			agGot := agWant.Clone()
			bySourceLoops(agWant.data, d, g.data, d, src, dst, coef)
			CSRAggregateBackward(agGot, g, csr, coef)
			requireBitIdentical(t, "CSRAggregateBackward "+name, agWant, agGot)

			// The strided form GATAttention reads: columns [d, 2d) of a
			// 3d-wide gradient.
			wide := thirds(nseg, 3*d, rng)
			agWant = saltedMatrix(nsrc, d, rng)
			agGot = agWant.Clone()
			bySourceLoops(agWant.data, d, wide.data[d:], 3*d, src, dst, coef)
			csr.AddBySource(agGot.data, d, wide.data[d:], 3*d, coef)
			requireBitIdentical(t, "AddBySource strided "+name, agWant, agGot)
		}
	})
}

// The by-source index holds every edge once, ascending within a source, and
// the segment kernels refuse inputs too short for the rows they index.
func TestCSRBySourceIndex(t *testing.T) {
	src, dst, nseg, nsrc := segmentGraph(rand.New(rand.NewSource(89)))
	csr := NewCSR(nseg, src, dst)
	if csr.nsrc != nsrc || len(csr.srcStarts) != nsrc+1 {
		t.Fatalf("nsrc %d with %d starts, want %d", csr.nsrc, len(csr.srcStarts), nsrc)
	}
	seen := make([]bool, len(src))
	for r := range nsrc {
		lo, hi := csr.srcStarts[r], csr.srcStarts[r+1]
		for p := lo; p < hi; p++ {
			e := csr.srcEdges[p]
			if src[e] != r || int(csr.srcDsts[p]) != dst[e] || seen[e] || (p > lo && e <= csr.srcEdges[p-1]) {
				t.Fatalf("source %d slot %d: edge %d (%d→%d), dst %d", r, p, e, src[e], dst[e], csr.srcDsts[p])
			}
			seen[e] = true
		}
		if r == 3 && hi != lo {
			t.Fatalf("source 3 has %d edges, want none", hi-lo)
		}
	}
	for e, ok := range seen {
		if !ok {
			t.Fatalf("edge %d missing from the by-source index", e)
		}
	}

	coef := make([]float64, len(src))
	for _, d := range segWidths {
		for _, f := range []func(){
			func() { CSRAggregateInto(New(nseg, d), New(nsrc-1, d), csr, coef) },
			func() { csr.SegmentInto(make([]float64, d), 0, make([]float64, (nsrc-1)*d), coef) },
			func() { csr.AddBySource(make([]float64, (nsrc-1)*d), d, make([]float64, nseg*d), d, coef) },
			func() { csr.AddBySource(make([]float64, nsrc*d), d, make([]float64, nseg*d-1), d, coef) },
			func() { CSRAggregateBackward(New(nsrc, d), New(nseg-1, d), csr, coef) },
		} {
			func() {
				defer expectPanic(t, fmt.Sprintf("short input at width %d", d))
				f()
			}()
		}
	}
	func() {
		defer expectPanic(t, "NewCSR with a negative source")
		NewCSR(2, []int{-1}, []int{0})
	}()
}

// constSparseLoops are the ConstSparse products the kernels promise. The
// forward row i starts at c_i·colsum(w) (c_i ≠ 0, column sums rows
// ascending) or +0 and adds (val − c_i)·w[col] per entry, skipping a ±0
// val − c_i; the gradient adds Σ_i c_i·g_i (rows ascending, c_i ≠ 0) to
// every row of dst, then (val − c_i)·g_i to row col, rows and entries in
// order, with the same skip.
func constSparseLoops(a *ConstSparse, w, g, dst *Matrix) (fwd *Matrix) {
	n := w.cols
	colSum := make([]float64, n)
	for k := range w.rows {
		for x, v := range w.Row(k) {
			colSum[x] += v
		}
	}
	fwd = New(a.rows, n)
	rowSum := make([]float64, n)
	constant := false
	for i, c := range a.c {
		if c != 0 {
			for x := range n {
				fwd.Row(i)[x] = c * colSum[x]
				rowSum[x] += float64(c * g.Row(i)[x])
			}
			constant = true
		}
	}
	if constant {
		for k := range dst.rows {
			for x := range n {
				dst.Row(k)[x] += rowSum[x]
			}
		}
	}
	for i, c := range a.c {
		for e := a.lo[i]; e < a.hi[i]; e++ {
			v := a.val[e] - c
			if v == 0 {
				continue
			}
			for x := range n {
				fwd.Row(i)[x] += float64(v * w.Row(int(a.col[e]))[x])
				dst.Row(int(a.col[e]))[x] += float64(v * g.Row(i)[x])
			}
		}
	}
	return fwd
}

// specialConstSparse is an 8×12 ConstSparse with the rows the kernels
// branch on: entries equal to their row's constant (skipped), val = ±0
// under c = ±0 (skipped), a NaN and an Inf residual, a −0 constant, an
// empty zero row, and two spans each shared by rows with different
// constants. The skipped entries name column 8 in rows 0, 1, 5 and 6; the
// test puts +Inf in w's row 8 and −Inf in g's rows 0, 3 and 5, so a kernel
// that drops the skip multiplies an infinity by zero and writes NaN.
func specialConstSparse() *ConstSparse {
	third := 1.0 / 3
	type entry struct {
		col int32
		val float64
	}
	spans := [][]entry{
		{{1, math.Copysign(0, -1)}, {2, third}, {8, 0}},
		{{3, third}, {4, 2.5}, {8, third}, {11, math.Copysign(0, -1)}},
		{{0, qnan}, {6, math.Inf(1)}, {7, -third}},
		{{8, 0}, {9, 1.5}},
		{{8, 0.5}, {10, -2}},
	}
	rows := []struct {
		c    float64
		span int // −1: no residual
	}{
		{0, 0}, {third, 1}, {-1.25, 1}, {0, -1},
		{2, 2}, {math.Copysign(0, -1), 3}, {0.5, 4}, {0.75, 0},
	}
	total := 0
	for _, s := range spans {
		total += len(s)
	}
	m := NewConstSparse(len(rows), 12, total)
	col, val := m.Residual()
	starts := make([]int, len(spans)+1)
	for i, s := range spans {
		starts[i+1] = starts[i] + len(s)
		for j, e := range s {
			col[starts[i]+j], val[starts[i]+j] = e.col, e.val
		}
	}
	for i, r := range rows {
		if r.span < 0 {
			m.SetRow(i, r.c, 0, 0)
			continue
		}
		m.SetRow(i, r.c, starts[r.span], starts[r.span+1])
	}
	return m
}

func TestConstSparseKernelsMatchLoops(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(97))
		for _, n := range segWidths {
			cases := []struct {
				name string
				a    *ConstSparse
			}{
				{"special", specialConstSparse()},
				{"random", randConstSparse(60, 40, rng)},
			}
			for _, tc := range cases {
				name := fmt.Sprintf("%s width %d", tc.name, n)
				a := tc.a
				w, g := thirds(a.cols, n, rng), thirds(a.rows, n, rng)
				if tc.name == "special" {
					w, g = specialMatrix(a.cols, n, rng), specialMatrix(a.rows, n, rng)
					clear(w.Row(8))
					w.Row(8)[n-1] = math.Inf(1)
					for _, i := range []int{1, 2, 4, 6, 7} {
						for x, v := range g.Row(i) {
							if math.IsInf(v, 0) || math.IsNaN(v) {
								g.Row(i)[x] = 1
							}
						}
					}
					for _, i := range []int{0, 3, 5} {
						g.Row(i)[0] = math.Inf(-1)
					}
				}
				dstWant := saltedMatrix(a.cols, n, rng)
				dstGot := dstWant.Clone()
				fwdWant := constSparseLoops(a, w, g, dstWant)

				fwdGot := specialMatrix(a.rows, n, rng)
				ConstSparseMatMulInto(fwdGot, a, w, make([]float64, n))
				requireBitIdentical(t, "ConstSparseMatMulInto "+name, fwdWant, fwdGot)
				ConstSparseMatMulTNAddInto(dstGot, a, g, make([]float64, n))
				requireBitIdentical(t, "ConstSparseMatMulTNAddInto "+name, dstWant, dstGot)
			}
		}
	})
}

// A residual column past w's rows panics on either path instead of reading
// or writing outside the matrix.
func TestConstSparseRefusesOutOfRangeColumn(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, n := range segWidths {
			m := NewConstSparse(2, 3, 1)
			col, val := m.Residual()
			col[0], val[0] = 3, 1
			m.SetRow(1, 0, 0, 1)
			func() {
				defer expectPanic(t, fmt.Sprintf("forward with column 3 of 3, width %d", n))
				ConstSparseMatMulInto(New(2, n), m, New(3, n), make([]float64, n))
			}()
			func() {
				defer expectPanic(t, fmt.Sprintf("gradient with column 3 of 3, width %d", n))
				ConstSparseMatMulTNAddInto(New(3, n), m, New(2, n), make([]float64, n))
			}()
		}
	})
}

// rowMatrix wraps a copy of row as a 1×len(row) matrix.
func rowMatrix(row []float64) *Matrix {
	m := New(1, len(row))
	copy(m.data, row)
	return m
}
