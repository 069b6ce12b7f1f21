package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// In-place and fused kernel variants. These write into caller-provided
// destination buffers instead of allocating, which is what lets the autodiff
// tape run steady-state epochs without touching the garbage collector: the
// tape's shape-keyed free-list hands out recycled buffers and every hot op
// fills them with one of the kernels below.
//
// Accumulating variants (…AddInto, …InPlace) require dst to hold the running
// value; overwriting variants (…Into) fully define dst. All of them check
// shapes and panic on mismatch.

// ScaleInto stores s·a into dst (same shape).
func ScaleInto(dst, a *Matrix, s float64) {
	dst.sameShape(a, "ScaleInto")
	for i := range dst.data {
		dst.data[i] = s * a.data[i]
	}
}

// AddRowVectorInto stores a + v (v broadcast over rows) into dst.
func AddRowVectorInto(dst, a, v *Matrix) {
	dst.sameShape(a, "AddRowVectorInto")
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInto %dx%d + %dx%d", a.rows, a.cols, v.rows, v.cols))
	}
	for i := 0; i < a.rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := range drow {
			drow[j] = arow[j] + v.data[j]
		}
	}
}

// AddRowSumsInPlace accumulates the column sums of a into the 1×cols dst —
// the backward of a broadcast row addition, fused with its accumulation.
func AddRowSumsInPlace(dst, a *Matrix) {
	if dst.rows != 1 || dst.cols != a.cols {
		panic(fmt.Sprintf("tensor: AddRowSumsInPlace dst %dx%d for %dx%d", dst.rows, dst.cols, a.rows, a.cols))
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		for j := range arow {
			dst.data[j] += arow[j]
		}
	}
}

// SoftmaxRowsInto stores the row-wise softmax of a into dst, numerically
// stabilized by subtracting each row's maximum.
func SoftmaxRowsInto(dst, a *Matrix) {
	dst.sameShape(a, "SoftmaxRowsInto")
	for i := 0; i < a.rows; i++ {
		row, orow := a.Row(i), dst.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
}

// MatMulInto stores a·b into dst (dst is m×n for a m×k, b k×n); dst's prior
// contents are ignored. Products above matMulParallelThreshold flops fan out
// across CPUs in row blocks; each entry's sum is the same for any worker
// count, so the result is too.
func MatMulInto(dst, a, b *Matrix) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d for %dx%d product", dst.rows, dst.cols, a.rows, b.cols))
	}
	workers := matMulWorkers(a.rows, a.cols, b.cols)
	if workers <= 1 {
		matMulRowsBlocked(a, b, dst, 0, a.rows)
		return
	}
	parallelRowBlocks(a.rows, workers, func(lo, hi int) {
		matMulRowsBlocked(a, b, dst, lo, hi)
	})
}

// MatMulNTAddInto accumulates a·bᵀ into dst (dst m×k for a m×n, b k×n) —
// the dX term of a matmul backward, fused so neither the transpose nor the
// product allocates. Per-entry summation runs in ascending column order of
// a, keeping results deterministic for any worker count.
func MatMulNTAddInto(dst, a, b *Matrix) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulNTAddInto inner dims %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulNTAddInto dst %dx%d for %dx%d product", dst.rows, dst.cols, a.rows, b.rows))
	}
	workers := matMulWorkers(a.rows, a.cols, b.rows)
	if workers <= 1 {
		matMulNTRowsBlocked(a, b, dst, 0, a.rows)
		return
	}
	parallelRowBlocks(a.rows, workers, func(lo, hi int) {
		matMulNTRowsBlocked(a, b, dst, lo, hi)
	})
}

// MatMulTNAddInto accumulates aᵀ·b into dst (dst k×n for a m×k, b m×n) —
// the dW term of a matmul backward, fused like MatMulNTAddInto. Parallel
// blocks split dst rows; every entry still sums over m in ascending order,
// so results are deterministic for any worker count.
func MatMulTNAddInto(dst, a, b *Matrix) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: MatMulTNAddInto inner dims (%dx%d)ᵀ · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulTNAddInto dst %dx%d for %dx%d product", dst.rows, dst.cols, a.cols, b.cols))
	}
	workers := matMulWorkers(a.cols, a.rows, b.cols)
	if workers <= 1 {
		matMulTNRowsBlocked(a, b, dst, 0, dst.rows)
		return
	}
	parallelRowBlocks(dst.rows, workers, func(lo, hi int) {
		matMulTNRowsBlocked(a, b, dst, lo, hi)
	})
}

// matMulWorkers sizes the worker fan-out for an m×k·k×n-shaped kernel: one
// worker below matMulParallelThreshold flops, else one per CPU (at most one
// per row).
func matMulWorkers(m, k, n int) int {
	if flops := m * k * n; flops < matMulParallelThreshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > m {
		w = m
	}
	return w
}

// parallelRowBlocks runs body over [0, rows) split into contiguous blocks,
// one goroutine per block.
func parallelRowBlocks(rows, workers int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
