// Package tensor provides dense float64 matrices and the numerical kernels
// used by the autodiff tape and the GNN layers. It is deliberately small:
// row-major storage, shape-checked operations, and no external dependencies.
//
// Shape errors are programmer errors and panic with a diagnostic message,
// following the convention of numeric Go libraries; everything that can fail
// at runtime for data-dependent reasons returns an error instead.
//
// # Kernel design
//
// Each matmul has one implementation, register-blocked (kernels.go):
//
//   - MatMul/MatMulInto (matMulRowsBlocked) packs B into 256×8 L1-resident
//     panels and streams each A-row against a panel with 8 independent
//     accumulator chains, one per output column; when B itself fits in half
//     of L1 (≤2048 float64s — every 16-wide model layer) a no-packing
//     variant streams B in its natural layout. The kernel overwrites its
//     output rows, so MatMulInto needs no dst-zeroing pass. Per-element a==0
//     skips exploit ReLU-activation sparsity (~half zeros in hidden layers).
//   - MatMulNTAddInto (matMulNTRowsBlocked) dots each A-row against 4 rows
//     of B concurrently — 4 independent dot-product chains.
//   - MatMulTNAddInto (matMulTNRowsBlocked) performs rank-1 updates into 4
//     destination rows per pass. Blocks whose 4 A-values are all nonzero
//     reuse each loaded B-row 4× from registers; blocks with any zero fall
//     back to per-row conditional axpys, keeping the sparsity win on
//     activation matrices.
//
// The summation order is frozen: every output entry sums its reduction
// index in ascending order, because training determinism is a repo-wide
// contract — golden loss traces are stored as exact hex floats, and
// Workers=1 vs Workers=N must be bit-identical. The scalar loops the blocked
// kernels replaced survive as test oracles in kernels_test.go (matMulRows,
// matMulNTRows, matMulTNRows); the equivalence property tests there assert
// bit-identity against them over randomized shapes, so a kernel change that
// reorders summation fails loudly. Kernel and oracle differ only in (a)
// instruction scheduling across *independent* accumulator chains and (b)
// whether ±0-valued terms are skipped or added; neither changes any finite
// result bit (x + ±0 == x for x ≠ 0, (+0) + (−0) == +0 in round-to-nearest,
// and an accumulator that starts at +0 and only ever receives += can never
// become −0). On non-finite inputs they may differ (a sparsity skip drops
// 0·±Inf = NaN terms); training data is finite by construction (see HasNaN
// guards upstream).
//
// CSR (csr.go) is the sparse counterpart: destination-grouped edges in
// stable original edge order let CSRAggregateInto run neighborhood
// aggregation — gather source rows, scale each by its edge coefficient, sum
// per destination — in one pass with no per-edge message materialization,
// bit-identical by construction to the three-op Gather→scale→ScatterAddRows
// chain (the oracle in kernels_test.go and internal/autodiff/csr_test.go).
// It overwrites its output (empty segments zeroed, each segment's first term
// stored through one +0 add so a −0 first product canonicalizes exactly like
// the chain's +0-starting accumulator), so callers can hand it recycled
// buffers.
//
// ConstSparse (constsparse.go) is the one exception to the frozen order: a
// matrix stored as a constant per row plus a sparse residual — the shape of
// an LDP-initialized forest input — whose two kernels equal MatMulInto and
// MatMulTNAddInto only up to summation order. Its property tests check them
// against the dense kernels within a rounding bound, not bit for bit.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major float64 matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix. The slice
// is used directly, not copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d != %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Full returns a rows×cols matrix with every entry set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = v
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Uniform returns a rows×cols matrix with entries drawn from U[lo, hi).
func Uniform(rows, cols int, lo, hi float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// Normal returns a rows×cols matrix with entries drawn from N(mean, std²).
func Normal(rows, cols int, mean, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = mean + std*rng.NormFloat64()
	}
	return m
}

// Glorot returns a rows×cols matrix with Glorot/Xavier uniform initialization,
// the standard initialization for GCN and GAT weight matrices.
func Glorot(rows, cols int, rng *rand.Rand) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return Uniform(rows, cols, -limit, limit, rng)
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// Size returns rows*cols.
func (m *Matrix) Size() int { return len(m.data) }

// Data returns the underlying row-major slice (not a copy).
func (m *Matrix) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("tensor: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("tensor: SetRow len %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// SliceRows returns the sub-matrix of rows [lo, hi) as a view sharing m's
// storage — no copy; writes through either alias are visible to both.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, m.rows))
	}
	return &Matrix{rows: hi - lo, cols: m.cols, data: m.data[lo*m.cols : hi*m.cols]}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies the contents of src (same shape) into m.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.sameShape(src, "CopyFrom")
	copy(m.data, src.data)
}

// SwapData exchanges the backing arrays of m and o, which must have the same
// shape: a move, not a copy, of both matrices' contents. Every holder of
// either *Matrix sees the new values; a SliceRows view of either keeps the
// array it was cut from.
func (m *Matrix) SwapData(o *Matrix) {
	m.sameShape(o, "SwapData")
	m.data, o.data = o.data, m.data
}

// Zero sets every entry to 0.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every entry to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

func (m *Matrix) sameShape(o *Matrix, op string) {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, o.rows, o.cols))
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.rows*m.cols > 100 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
