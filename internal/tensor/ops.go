package tensor

import (
	"fmt"
	"math"
)

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

// matMulParallelThreshold is the flop count above which a matmul kernel fans
// out across CPUs. Row blocks write disjoint output ranges, so no locking is
// needed.
const matMulParallelThreshold = 1 << 21

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
