package tensor

import (
	"fmt"
	"math"
)

// ConstSparse is a read-only rows×cols matrix stored as one constant per row
// plus a sparse residual: row i holds c[i] in every column except its
// residual entries e ∈ [lo[i], hi[i]), where it holds val[e] in column
// col[e]. Several rows may share one residual span (the forest's copies of a
// device's own feature do), and the entries of one span name distinct
// columns.
//
// It is the shape of an LDP-initialized forest input (core.Forest): a
// neighbour leaf's row is one recovered "not transmitted" constant apart
// from the handful of entries its sender transmitted, a center leaf's row is
// a sparse raw feature, a virtual row is zero. Its two kernels therefore
// cost O(rows + entries) row operations where the dense ones cost
// O(rows × cols):
//
//   - ConstSparseMatMulInto: out_i = c_i·colsum(W) + Σ_e (val_e − c_i)·W[col_e];
//   - ConstSparseMatMulTNAddInto: dst += Aᵀ·G, i.e. Σ_i c_i·G_i added to
//     every row of dst, then each (val_e − c_i)·G_i added to row col_e.
//
// Both are the dense products up to summation order — not bit-identical to
// MatMulInto/MatMulTNAddInto, which sum the reduction index in ascending
// order over every entry.
type ConstSparse struct {
	rows, cols int
	c          []float64
	lo, hi     []int32
	col        []int32
	val        []float64
}

// NewConstSparse returns a rows×cols ConstSparse whose rows are all the
// constant 0 with no residual, backed by arrays for exactly entries residual
// entries (Residual hands them out for filling; SetRow points rows at them).
// Columns and spans are int32, so cols and entries must fit one.
func NewConstSparse(rows, cols, entries int) *ConstSparse {
	if rows < 0 || cols < 0 || entries < 0 || cols > math.MaxInt32 || entries > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: NewConstSparse(%d, %d, %d)", rows, cols, entries))
	}
	return &ConstSparse{
		rows: rows, cols: cols,
		c:  make([]float64, rows),
		lo: make([]int32, rows), hi: make([]int32, rows),
		col: make([]int32, entries), val: make([]float64, entries),
	}
}

// Rows returns the number of rows.
func (m *ConstSparse) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *ConstSparse) Cols() int { return m.cols }

// Residual returns the backing column and value arrays every row's span
// indexes, for the builder to fill (not copies).
func (m *ConstSparse) Residual() (col []int32, val []float64) { return m.col, m.val }

// SetRow makes row i the constant c everywhere except the residual entries
// [lo, hi) of the backing arrays, whose columns must be distinct and in
// range (an out-of-range column panics when Dense or a kernel indexes by
// it).
func (m *ConstSparse) SetRow(i int, c float64, lo, hi int) {
	if i < 0 || i >= m.rows || lo < 0 || hi < lo || hi > len(m.col) {
		panic(fmt.Sprintf("tensor: SetRow(%d, span [%d,%d)) on %d rows, %d entries", i, lo, hi, m.rows, len(m.col)))
	}
	m.c[i], m.lo[i], m.hi[i] = c, int32(lo), int32(hi)
}

// Entries returns the number of residual entries over all rows, a span
// shared by k rows counted k times: the kernels' per-entry work.
func (m *ConstSparse) Entries() int {
	n := 0
	for i := range m.lo {
		n += int(m.hi[i] - m.lo[i])
	}
	return n
}

// SliceRows returns rows [lo, hi) as a view sharing m's arrays — no copy.
func (m *ConstSparse) SliceRows(lo, hi int) *ConstSparse {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("tensor: ConstSparse SliceRows [%d,%d) of %d rows", lo, hi, m.rows))
	}
	return &ConstSparse{
		rows: hi - lo, cols: m.cols,
		c:  m.c[lo:hi],
		lo: m.lo[lo:hi], hi: m.hi[lo:hi],
		col: m.col, val: m.val,
	}
}

// Dense returns the matrix m stands for: every entry of row i is c[i] or the
// residual value stored for its column, written as stored (no arithmetic).
func (m *ConstSparse) Dense() *Matrix {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		row := out.data[i*m.cols : (i+1)*m.cols]
		if c := m.c[i]; c != 0 {
			for x := range row {
				row[x] = c
			}
		}
		for e := m.lo[i]; e < m.hi[i]; e++ {
			row[m.col[e]] = m.val[e]
		}
	}
	return out
}

// ConstSparseMatMulInto stores a·w into dst (dst rows×n for a rows×k, w
// k×n); dst's prior contents are ignored. colSum is caller-owned workspace
// of length n (overwritten with w's column sums, read by the rows whose
// constant is nonzero). Row i is c_i·colsum(w) plus, per residual entry,
// (val − c_i)·w[col] — the rows of w the dense kernel would read for a
// nonzero constant, folded into one sum computed once.
func ConstSparseMatMulInto(dst *Matrix, a *ConstSparse, w *Matrix, colSum []float64) {
	if a.cols != w.rows {
		panic(fmt.Sprintf("tensor: ConstSparseMatMulInto inner dims %dx%d · %dx%d", a.rows, a.cols, w.rows, w.cols))
	}
	n := w.cols
	if dst.rows != a.rows || dst.cols != n || len(colSum) != n {
		panic(fmt.Sprintf("tensor: ConstSparseMatMulInto dst %dx%d (workspace %d) for %dx%d product",
			dst.rows, dst.cols, len(colSum), a.rows, n))
	}
	summed := false
	for i, c := range a.c {
		orow := dst.data[i*n : i*n+n : i*n+n]
		if c == 0 {
			clear(orow)
		} else {
			if !summed {
				columnSums(colSum, w)
				summed = true
			}
			for x, s := range colSum {
				orow[x] = c * s
			}
		}
		for e := a.lo[i]; e < a.hi[i]; e++ {
			v := a.val[e] - c
			if v == 0 {
				continue
			}
			k := int(a.col[e])
			axpy(orow, v, w.data[k*n:k*n+n:k*n+n])
		}
	}
}

// ConstSparseMatMulTNAddInto accumulates aᵀ·g into dst (dst k×n for a
// rows×k, g rows×n) — a first layer's weight gradient. rowSum is caller-owned
// workspace of length n (overwritten with Σ_i c_i·g_i, which every row of
// dst receives); each residual entry then adds (val − c_i)·g_i to row col.
func ConstSparseMatMulTNAddInto(dst *Matrix, a *ConstSparse, g *Matrix, rowSum []float64) {
	if a.rows != g.rows {
		panic(fmt.Sprintf("tensor: ConstSparseMatMulTNAddInto inner dims (%dx%d)ᵀ · %dx%d", a.rows, a.cols, g.rows, g.cols))
	}
	n := g.cols
	if dst.rows != a.cols || dst.cols != n || len(rowSum) != n {
		panic(fmt.Sprintf("tensor: ConstSparseMatMulTNAddInto dst %dx%d (workspace %d) for %dx%d product",
			dst.rows, dst.cols, len(rowSum), a.cols, n))
	}
	clear(rowSum)
	constant := false
	for i, c := range a.c {
		if c != 0 {
			axpy(rowSum, c, g.data[i*n:i*n+n:i*n+n])
			constant = true
		}
	}
	if constant {
		for k := 0; k < dst.rows; k++ {
			drow := dst.data[k*n : k*n+n : k*n+n]
			for x, s := range rowSum {
				drow[x] += s
			}
		}
	}
	for i, c := range a.c {
		grow := g.data[i*n : i*n+n : i*n+n]
		for e := a.lo[i]; e < a.hi[i]; e++ {
			v := a.val[e] - c
			if v == 0 {
				continue
			}
			k := int(a.col[e])
			axpy(dst.data[k*n:k*n+n:k*n+n], v, grow)
		}
	}
}

// columnSums overwrites sum with the column sums of w, rows in ascending
// order.
func columnSums(sum []float64, w *Matrix) {
	clear(sum)
	n := w.cols
	for k := 0; k < w.rows; k++ {
		for x, v := range w.data[k*n : k*n+n : k*n+n] {
			sum[x] += v
		}
	}
}

// axpy adds s·x to y (equal lengths).
func axpy(y []float64, s float64, x []float64) {
	x = x[:len(y)]
	if nv := len(y) &^ 3; useAVX2 && nv > 0 {
		axpyVec(y, s, x, nv)
		y, x = y[nv:], x[nv:]
	}
	for j, v := range x {
		y[j] += s * v
	}
}
