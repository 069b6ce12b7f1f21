package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachPath runs f once per kernel path: the portable Go loops, then the
// vector kernels where this CPU has them. The kernel-vs-oracle tests run
// inside it, so both paths answer to the same scalar oracles.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, vec := range []bool{false, true} {
		name := "portable"
		if vec {
			if !hasAVX2 {
				t.Log("no AVX2 on this CPU: the vector path is not run")
				continue
			}
			name = "avx2"
		}
		useAVX2 = vec
		t.Run(name, f)
	}
}

// reluRows fills a rows×cols matrix the way a hidden layer's activations
// look, plus the rows a kernel could mishandle: row 0 all +0, row 1 all −0,
// row 2 mixed ±0, the rest ~30 % zeros of both signs.
func reluRows(rows, cols int, rng *rand.Rand) *Matrix {
	m := saltedMatrix(rows, cols, rng)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			switch i {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			case 2:
				row[j] = math.Copysign(0, float64(j%2)-0.5)
			}
		}
	}
	return m
}

// edgeWidths are the output widths around every vector boundary (4-wide
// vectors, 8-column blocks) and the models' 64; edgeDepths the reduction
// depths, empty included.
var (
	edgeWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	edgeDepths = []int{0, 1, 63, 64, 65}
)

// The three matmul kernels against their oracles at every edge width and
// depth, over row sub-ranges [lo, hi) that leave 4-row blocks with every
// remainder, with ±0 and all-zero a rows and nonzero destinations (−0
// entries included) for the accumulating kernels.
func TestKernelsMatchOracleEdgeShapes(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		const m = 11
		ranges := [][2]int{{0, m}, {1, 6}, {3, 10}, {5, 5}}
		for _, n := range edgeWidths {
			for _, kk := range edgeDepths {
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					name := fmt.Sprintf("n=%d kk=%d rows [%d,%d)", n, kk, lo, hi)

					// Forward: rows [lo, hi) of out are overwritten, the rest
					// are left alone.
					a, b := reluRows(m, kk, rng), saltedMatrix(kk, n, rng)
					out := saltedMatrix(m, n, rng)
					want := out.Clone()
					for i := lo; i < hi; i++ {
						clear(want.Row(i))
					}
					matMulRows(a, b, want, lo, hi)
					matMulRowsBlocked(a, b, out, lo, hi)
					requireBitIdentical(t, "forward "+name, want, out)

					// NT: dst (m×n) += a·bᵀ for a m×kk, b n×kk.
					bt := saltedMatrix(n, kk, rng)
					dst := saltedMatrix(m, n, rng)
					want = dst.Clone()
					matMulNTRows(a, bt, want, lo, hi)
					matMulNTRowsBlocked(a, bt, dst, lo, hi)
					requireBitIdentical(t, "NT "+name, want, dst)

					// TN: dst (kk×n) += aᵀ·g over dst rows [lo', hi') of kk,
					// into a destination without −0 (the vector path) and
					// one with (the Go loops).
					g := saltedMatrix(m, n, rng)
					tlo, thi := min(lo, kk), min(hi, kk)
					for _, dst := range []*Matrix{positiveSalted(kk, n, rng), saltedMatrix(kk, n, rng)} {
						want = dst.Clone()
						matMulTNRows(a, g, want, tlo, thi)
						matMulTNRowsBlocked(a, g, dst, tlo, thi)
						requireBitIdentical(t, "TN "+name, want, dst)
					}
				}
			}
		}
	})
}

// axpy, the ConstSparse kernels' row update, at every edge length.
func TestAxpyMatchesScalar(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(67))
		for _, n := range edgeWidths {
			x, y := saltedMatrix(1, n, rng), saltedMatrix(1, n, rng)
			s := rng.NormFloat64()
			want := y.Clone()
			for j, v := range x.data {
				want.data[j] += s * v
			}
			axpy(y.data, s, x.data)
			requireBitIdentical(t, fmt.Sprintf("axpy n=%d", n), want, y)
		}
	})
}

// fuzzSource hands out finite float64s decoded from fuzz bytes: ±0,
// subnormals, values near overflow, small dyadic ones (exact sums) and
// thirds (sums that round, so a changed order shows), cycling through the
// input (all +0 when it is empty).
type fuzzSource struct {
	data []byte
	pos  int
}

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[s.pos%len(s.data)]
	s.pos++
	return b
}

func (s *fuzzSource) value() float64 {
	kind, v := s.byte(), float64(int8(s.byte()))
	switch kind % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return v * math.SmallestNonzeroFloat64
	case 3:
		return v * 1e300
	case 4:
		return v / 16
	default:
		return v / 3
	}
}

func (s *fuzzSource) matrix(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = s.value()
	}
	return m
}

// FuzzKernelsMatchPortable runs every kernel with a vector path on both
// paths over the same finite inputs and requires the same bits: the
// forward, NT, TN, axpy and the weighted sum.
func FuzzKernelsMatchPortable(f *testing.F) {
	f.Add(uint8(7), uint8(64), uint8(16), uint8(5), []byte{4, 9, 0, 1, 1, 3, 5, 200, 2, 7})
	f.Add(uint8(5), uint8(65), uint8(17), uint8(10), []byte{0, 0, 1, 0, 6, 33})
	f.Add(uint8(9), uint8(255), uint8(37), uint8(1), []byte{3, 127, 3, 129, 4, 1}) // deep B, overflow
	f.Add(uint8(1), uint8(0), uint8(8), uint8(3), []byte{})
	f.Add(uint8(13), uint8(1), uint8(4), uint8(7), []byte{2, 1, 2, 255, 7, 64})
	f.Fuzz(func(t *testing.T, rows, depth, width, sources uint8, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU")
		}
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		m, kk, n, ns := int(rows)%16, int(depth)%300, int(width)%40, 1+int(sources)%10

		run := func(vec bool) []*Matrix {
			useAVX2 = vec
			src := &fuzzSource{data: data}
			a, b := src.matrix(m, kk), src.matrix(kk, n)
			fwd := src.matrix(m, n)
			MatMulInto(fwd, a, b)
			nt := src.matrix(m, n)
			MatMulNTAddInto(nt, a, src.matrix(n, kk))
			tn := src.matrix(kk, n)
			if src.byte()%2 == 0 {
				// No −0 in dst: the vector path runs (see
				// matMulTNRowsBlocked).
				for i, v := range tn.data {
					tn.data[i] = v + 0
				}
			}
			MatMulTNAddInto(tn, a, src.matrix(m, n))
			ax := src.matrix(1, n)
			axpy(ax.data, src.value(), src.matrix(1, n).data)
			srcs, ws := make([]*Matrix, ns), make([]float64, ns)
			for j := range srcs {
				srcs[j], ws[j] = src.matrix(m, n), src.value()
			}
			mix := New(m, n)
			WeightedSumInto(mix, srcs, ws, src.byte()%2 == 0)
			return []*Matrix{fwd, nt, tn, ax, mix}
		}
		want, got := run(false), run(true)
		for i, name := range []string{"forward", "NT", "TN", "axpy", "weighted sum"} {
			requireBitIdentical(t, name, want[i], got[i])
		}
	})
}
