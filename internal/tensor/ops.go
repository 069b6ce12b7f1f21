package tensor

import (
	"fmt"
	"math"
)

// The allocating kernels below are thin wrappers over their Into/fused
// twins in inplace.go, so each kernel has exactly one implementation.

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	AddInto(out, a, b)
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	SubInto(out, a, b)
	return out
}

// MulElem returns the Hadamard (elementwise) product a ⊙ b.
func MulElem(a, b *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	MulElemInto(out, a, b)
	return out
}

// Scale returns s·a.
func Scale(a *Matrix, s float64) *Matrix {
	out := New(a.rows, a.cols)
	ScaleInto(out, a, s)
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	a.sameShape(b, "AddInPlace")
	for i := range a.data {
		a.data[i] += b.data[i]
	}
}

// AddScaledInPlace accumulates s·b into a.
func AddScaledInPlace(a *Matrix, s float64, b *Matrix) {
	a.sameShape(b, "AddScaledInPlace")
	for i := range a.data {
		a.data[i] += s * b.data[i]
	}
}

// SumInto accumulates every src into dst in argument order. It is the
// reduction entry point of the device-parallel trainer: the summation order
// is fixed by the caller (shard order), so the result is bit-identical no
// matter how many workers produced the inputs. Nil sources are skipped.
func SumInto(dst *Matrix, srcs ...*Matrix) {
	for _, s := range srcs {
		if s != nil {
			AddInPlace(dst, s)
		}
	}
}

// ScaleInPlace multiplies every entry of a by s.
func ScaleInPlace(a *Matrix, s float64) {
	for i := range a.data {
		a.data[i] *= s
	}
}

// matMulParallelThreshold is the flop count above which MatMul fans out
// across CPUs. Row blocks write disjoint output ranges, so no locking is
// needed.
const matMulParallelThreshold = 1 << 21

// MatMul returns a·b for a (m×k) and b (k×n). Large products are computed
// in parallel across row blocks.
func MatMul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	workers := matMulWorkers(a.rows, a.cols, b.cols)
	if workers <= 1 {
		matMulRowsBlocked(a, b, out, 0, a.rows)
		return out
	}
	parallelRowBlocks(a.rows, workers, func(lo, hi int) {
		matMulRowsBlocked(a, b, out, lo, hi)
	})
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.data[j*out.cols+i] = a.data[i*a.cols+j]
		}
	}
	return out
}

// AddRowVector returns a with the 1×cols row vector v added to every row.
func AddRowVector(a, v *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	AddRowVectorInto(out, a, v)
	return out
}

// SumRows returns the 1×cols vector of column sums (summing down each column).
func SumRows(a *Matrix) *Matrix {
	out := New(1, a.cols)
	AddRowSumsInPlace(out, a)
	return out
}

// Sum returns the sum of all entries.
func Sum(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// Mean returns the mean of all entries (0 for an empty matrix).
func Mean(a *Matrix) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// Apply returns f applied elementwise to a.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

// Gather returns the matrix whose i-th row is a.Row(idx[i]).
func Gather(a *Matrix, idx []int) *Matrix {
	out := New(len(idx), a.cols)
	GatherInto(out, a, idx)
	return out
}

// ScatterAddRows adds each row i of src into dst.Row(idx[i]).
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.rows != len(idx) || src.cols != dst.cols {
		panic(fmt.Sprintf("tensor: ScatterAddRows src %dx%d idx %d dst %dx%d",
			src.rows, src.cols, len(idx), dst.rows, dst.cols))
	}
	for i, r := range idx {
		drow := dst.Row(r)
		srow := src.Row(i)
		for j := range drow {
			drow[j] += srow[j]
		}
	}
}

// GatherAddRows adds src.Row(idx[i]) into each row i of dst — the transpose
// of ScatterAddRows, and its backward.
func GatherAddRows(dst, src *Matrix, idx []int) {
	if dst.rows != len(idx) || src.cols != dst.cols {
		panic(fmt.Sprintf("tensor: GatherAddRows dst %dx%d idx %d src %dx%d",
			dst.rows, dst.cols, len(idx), src.rows, src.cols))
	}
	for i, r := range idx {
		drow := dst.Row(i)
		srow := src.Row(r)
		for j := range drow {
			drow[j] += srow[j]
		}
	}
}

// AddRowPairs adds src.Row(srcRows[i]) into dst.Row(dstRows[i]) for i
// ascending — ScatterAddRows and GatherAddRows at once. Its transpose (and
// backward) is AddRowPairs with the two (matrix, rows) pairs swapped.
func AddRowPairs(dst *Matrix, dstRows []int, src *Matrix, srcRows []int) {
	if len(dstRows) != len(srcRows) || src.cols != dst.cols {
		panic(fmt.Sprintf("tensor: AddRowPairs %d rows of %dx%d into %d rows of %dx%d",
			len(srcRows), src.rows, src.cols, len(dstRows), dst.rows, dst.cols))
	}
	for i, r := range dstRows {
		drow := dst.Row(r)
		srow := src.Row(srcRows[i])
		for j := range drow {
			drow[j] += srow[j]
		}
	}
}

// RowDot returns the dot product of rows i of a and j of b.
func RowDot(a *Matrix, i int, b *Matrix, j int) float64 {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: RowDot cols %d vs %d", a.cols, b.cols))
	}
	ra, rb := a.Row(i), b.Row(j)
	s := 0.0
	for k := range ra {
		s += ra[k] * rb[k]
	}
	return s
}

// ArgMaxRow returns the column index of the maximum entry in row i.
func ArgMaxRow(a *Matrix, i int) int {
	row := a.Row(i)
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// SoftmaxRows returns row-wise softmax of a, numerically stabilized.
func SoftmaxRows(a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	SoftmaxRowsInto(out, a)
	return out
}

// MaxAbs returns the maximum absolute entry value (0 for empty).
func MaxAbs(a *Matrix) float64 {
	mx := 0.0
	for _, v := range a.data {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	return mx
}

// Norm2 returns the Frobenius norm.
func Norm2(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ApproxEqual reports whether a and b have the same shape and every entry
// differs by at most tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any entry is NaN or ±Inf.
func HasNaN(a *Matrix) bool {
	for _, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// VStack concatenates matrices vertically. All inputs must share a column
// count; empty inputs are skipped. VStack of nothing returns a 0×0 matrix.
func VStack(ms ...*Matrix) *Matrix {
	rows, cols := 0, -1
	for _, m := range ms {
		if m == nil || m.rows == 0 {
			continue
		}
		if cols == -1 {
			cols = m.cols
		} else if m.cols != cols {
			panic(fmt.Sprintf("tensor: VStack cols %d vs %d", m.cols, cols))
		}
		rows += m.rows
	}
	if cols == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	r := 0
	for _, m := range ms {
		if m == nil || m.rows == 0 {
			continue
		}
		copy(out.data[r*cols:], m.data)
		r += m.rows
	}
	return out
}

// HStack concatenates matrices horizontally. All inputs must share a row count.
func HStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			panic(fmt.Sprintf("tensor: HStack rows %d vs %d", m.rows, rows))
		}
		cols += m.cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		for _, m := range ms {
			copy(out.data[i*cols+off:i*cols+off+m.cols], m.Row(i))
			off += m.cols
		}
	}
	return out
}
