//go:build !amd64

package tensor

// Only amd64 has vector kernels: every other GOARCH runs the portable Go
// loops, and these stubs are never reached.

var hasAVX2 = false

var useAVX2 = hasAVX2

func gemm8(out []float64, ldo int, a []float64, ars, aks int, b []float64, ldb, rows, kk, mode int) {
	panic("tensor: no vector kernels on this GOARCH")
}

func axpyVec(y []float64, s float64, x []float64, n int) {
	panic("tensor: no vector kernels on this GOARCH")
}

func mixVec(d []float64, n int, srcs []*Matrix, ws []float64, z float64) {
	panic("tensor: no vector kernels on this GOARCH")
}
