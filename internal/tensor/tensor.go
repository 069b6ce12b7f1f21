// Package tensor provides dense float64 matrices and the numerical kernels
// used by the autodiff tape and the GNN layers. It is deliberately small:
// row-major storage, shape-checked operations, and no external dependencies.
//
// Shape errors are programmer errors and panic with a diagnostic message,
// following the convention of numeric Go libraries; everything that can fail
// at runtime for data-dependent reasons returns an error instead.
//
// # Float contract
//
// Every value is IEEE 754 binary64, rounded to nearest. No kernel fuses a
// multiply into an add: each product is rounded, then added. The assembly
// never uses a fused multiply-add instruction, and the amd64 Go compiler
// never fuses x*y + z (compilers for arm64, ppc64le, s390x and riscv64 may,
// so the goldens pin amd64's bits). Each output entry sums its terms in one
// fixed order — the reduction index ascending, or the sources left to
// right — because training determinism is a repo-wide contract: golden loss
// traces are stored as exact hex floats, and Workers=1 vs Workers=N must be
// bit-identical. A kernel may skip a ±0-valued term or add it; that is
// equivalent on finite inputs only (see below).
//
// # Kernel design
//
// Each matmul has one implementation, register-blocked (kernels.go):
//
//   - MatMulInto (matMulRowsBlocked) streams each A-row against B in its
//     natural layout with 8 independent accumulator chains, one per output
//     column of an 8-wide column block. B is never packed: on the shapes
//     the models and baselines run (B at most 64 columns wide) a packed copy
//     bought nothing, though a much wider B streams from memory once per
//     column block. The kernel overwrites its output rows, so MatMulInto
//     needs no dst-zeroing pass. Per-element a==0 skips exploit ReLU-activation sparsity (22 %
//     zeros in the GCN workload's hidden activations, 37 % in the GAT
//     workload's).
//   - MatMulNTAddInto (matMulNTRowsBlocked) dots each A-row against 4 rows
//     of B concurrently — 4 independent dot-product chains.
//   - MatMulTNAddInto (matMulTNRowsBlocked) performs rank-1 updates into 4
//     destination rows per pass. Blocks whose 4 A-values are all nonzero
//     reuse each loaded B-row 4× from registers; blocks with any zero fall
//     back to per-row conditional axpys, keeping the sparsity win on
//     activation matrices.
//
// The scalar loops the blocked kernels replaced survive as test oracles in
// kernels_test.go (matMulRows, matMulNTRows, matMulTNRows); the equivalence
// property tests there assert bit-identity against them over randomized
// shapes, so a kernel change that reorders summation fails loudly. Kernel
// and oracle differ only in (a) instruction scheduling across *independent*
// accumulator chains and (b) whether ±0-valued terms are skipped or added;
// neither changes any finite result bit (x + ±0 == x for x ≠ 0, (+0) + (−0)
// == +0 in round-to-nearest, and an accumulator that starts at +0 and only
// ever receives += can never become −0). On non-finite inputs they may
// differ (a sparsity skip drops 0·±Inf = NaN terms); training data is finite
// by construction (see HasNaN guards upstream).
//
// # Vector kernels
//
// On amd64 the inner loops of the dense kernels also exist in AVX2
// assembly (simd_amd64.s): the forward 8-column block (which also serves NT,
// over a transposed copy of B packed on the stack, and TN, with A read down
// its columns), axpy (the ConstSparse kernels' row update) and
// WeightedSumInto's passes. Each vector lane runs the scalar kernel's own
// VMULPD and VADDPD in the scalar order, so the results are the Go loops'
// bit for bit; the vector loops add the ±0 terms the Go loops skip, which
// the contract above makes equivalent on finite inputs (TN, which adds onto
// dst's values, leaves a dst range holding a −0 to the Go loops). Column
// tails narrower than a vector stay in Go.
//
// The vector path is chosen once, at package init, when CPUID reports
// OSXSAVE, AVX and AVX2 and XCR0 has the XMM and YMM state bits on. Nothing
// else selects it: there is no flag, environment variable or build tag. The
// portable Go loops are the only path on other GOARCHes and on CPUs without
// AVX2. The package's tests run every kernel-vs-oracle test once per path.
//
// CSR (csr.go) is the sparse counterpart: destination-grouped edges in
// stable original edge order let CSRAggregateInto run neighborhood
// aggregation — gather source rows, scale each by its edge coefficient, sum
// per destination — in one pass with no per-edge message materialization,
// bit-identical by construction to the three-op gather→scale→ScatterAddRows
// chain (the oracle in kernels_test.go and internal/autodiff/csr_test.go).
// It overwrites its output (empty segments zeroed, each segment's first term
// stored through one +0 add so a −0 first product canonicalizes exactly like
// the chain's +0-starting accumulator), so callers can hand it recycled
// buffers. Every aggregation is weighted: coef holds one coefficient per
// edge.
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

// Reshape makes m a rows×cols matrix over the first rows·cols entries of
// its backing array, whose capacity must hold them: entries past the old
// shape come back with whatever the array held there. It is how a buffer
// pool hands one array out at many shapes; use it only on a matrix that owns
// its whole array (not a SliceRows view, whose capacity runs into the rows
// after it).
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 || rows*cols > cap(m.data) {
		panic(fmt.Sprintf("tensor: Reshape to %dx%d over %d entries", rows, cols, cap(m.data)))
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:rows*cols]
}

// Zero sets every entry to 0.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
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
