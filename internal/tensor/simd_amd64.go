package tensor

import "fmt"

// hasAVX2 reports whether this CPU runs the AVX2 kernels of simd_amd64.s:
// CPUID says OSXSAVE, AVX and AVX2, and XCR0 says the OS saves the XMM and
// YMM state.
var hasAVX2 = detectAVX2()

// useAVX2 selects the AVX2 inner loops. It is hasAVX2, fixed at package
// init; only the package's tests set it, to run every kernel on both paths.
var useAVX2 = hasAVX2

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func gemm8AVX2(out *float64, ldo int, a *float64, ars, aks int, b *float64, ldb, rows, kk, mode int)

//go:noescape
func axpyAVX2(y *float64, s float64, x *float64, n int)

//go:noescape
func mixAVX2(d *float64, n int, srcs **float64, ws *float64, cnt int, z float64, head bool)

//go:noescape
func gatherRowsAVX2(out *float64, a *float64, ld int, edges *int32, rows *int32, cnt int, coef *float64, head bool)

//go:noescape
func constSparseRowAVX2(out *float64, c float64, colSum *float64, vals *float64, cols *int32, cnt int, w *float64, k int, scaled bool) (done int)

//go:noescape
func constSparseScatterAVX2(dst *float64, grow *float64, c float64, vals *float64, cols *int32, cnt int, k int) (done int)

// The wrappers below index the last element each kernel touches before
// calling it, so an extent error panics in Go instead of reading or writing
// past a slice.

// gemm8 runs the 8-column block kernel over rows ≥ 1 and kk ≥ 1 (see
// gemm8AVX2 in simd_amd64.s); mode is one of the gemm* constants.
func gemm8(out []float64, ldo int, a []float64, ars, aks int, b []float64, ldb, rows, kk, mode int) {
	_ = out[(rows-1)*ldo+mmColBlock-1]
	_ = a[(rows-1)*ars+(kk-1)*aks]
	_ = b[(kk-1)*ldb+mmColBlock-1]
	gemm8AVX2(&out[0], ldo, &a[0], ars, aks, &b[0], ldb, rows, kk, mode)
}

// axpyVec adds s·x[:n] to y[:n] for n a positive multiple of 4.
func axpyVec(y []float64, s float64, x []float64, n int) {
	_, _ = y[n-1], x[n-1]
	axpyAVX2(&y[0], s, &x[0], n)
}

// mixGroup is the most sources one vector weighted-sum pass reads.
const mixGroup = 8

// mixVec runs WeightedSumInto's sum over d[:n], n a positive multiple of 4:
// d = z + w0·s0 + w1·s1 + …, left to right, in passes of up to mixGroup
// sources (the first starts at z, each later one at d).
func mixVec(d []float64, n int, srcs []*Matrix, ws []float64, z float64) {
	var p [mixGroup]*float64
	_ = d[n-1]
	for g := 0; g < len(srcs); g += mixGroup {
		cnt := min(len(srcs)-g, mixGroup)
		_ = ws[g+cnt-1]
		for j := range cnt {
			s := srcs[g+j].data
			_ = s[n-1]
			p[j] = &s[0]
		}
		mixAVX2(&d[0], n, &p[0], &ws[g], cnt, z, g == 0)
	}
}

// gatherRows runs one CSR segment (head: out starts at +0) or source row
// (out starts at its values) at width segWidth: out += coef[edges[p]] ·
// a[rows[p]·ld : +segWidth] for p ascending, edges non-empty. The kernel
// reads rows and coefficients by index: its callers pass only the CSR's own
// index arrays, whose entries NewCSR bounded, after checking coef and a
// against those bounds.
func gatherRows(out []float64, head bool, a []float64, ld int, edges, rows []int32, coef []float64) {
	_ = out[segWidth-1]
	_ = rows[len(edges)-1]
	gatherRowsAVX2(&out[0], &a[0], ld, &edges[0], &rows[0], len(edges), &coef[0], head)
}

// constSparseRow runs one ConstSparse forward row at width segWidth over w
// (k×segWidth): out = c·colSum (c ≠ 0) or +0, then (val − c)·w[col] added
// per entry whose val − c is not ±0. It panics at the first such entry
// whose column is outside [0, k), which the kernel does not read.
func constSparseRow(out []float64, c float64, colSum, vals []float64, cols []int32, w []float64, k int) {
	_, _ = out[segWidth-1], colSum[segWidth-1]
	var vp *float64
	var cp *int32
	var wp *float64
	if len(vals) > 0 {
		_, _ = cols[len(vals)-1], w[k*segWidth-1]
		vp, cp, wp = &vals[0], &cols[0], &w[0]
	}
	if done := constSparseRowAVX2(&out[0], c, &colSum[0], vp, cp, len(vals), wp, k, c != 0); done < len(vals) {
		panic(fmt.Sprintf("tensor: ConstSparse column %d out of range [0,%d)", cols[done], k))
	}
}

// constSparseScatter runs one ConstSparse backward row at width segWidth
// into dst (k×segWidth): dst's row col += (val − c)·g per entry whose
// val − c is not ±0. It panics at the first such entry whose column is
// outside [0, k), having written the entries before it, as the Go loop does.
func constSparseScatter(dst, g []float64, c float64, vals []float64, cols []int32, k int) {
	if len(vals) == 0 {
		return
	}
	_, _, _ = g[segWidth-1], cols[len(vals)-1], dst[k*segWidth-1]
	if done := constSparseScatterAVX2(&dst[0], &g[0], c, &vals[0], &cols[0], len(vals), k); done < len(vals) {
		panic(fmt.Sprintf("tensor: ConstSparse column %d out of range [0,%d)", cols[done], k))
	}
}
