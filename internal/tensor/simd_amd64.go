package tensor

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
