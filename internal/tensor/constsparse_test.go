package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The ConstSparse kernels are the dense kernels up to summation order, so
// they are checked against MatMulInto/MatMulTNAddInto over the view's Dense
// form within a bound on the rounding of either order, row kinds by row
// kinds: no majority value (c = 0 under a full residual), all-constant
// rows, empty rows, residuals in the first and last column, shared spans,
// and the row slices a shard reads.

// randConstSparse builds a rows×cols ConstSparse drawing every row's kind
// at random (the kinds of the header comment, and the forest's own: a
// constant, or 0, plus a few entries, some equal to the constant); every
// third row shares the previous row's span.
func randConstSparse(rows, cols int, rng *rand.Rand) *ConstSparse {
	type span struct {
		c    float64
		cols []int32
		vals []float64
	}
	spans := make([]span, rows)
	total := 0
	for i := range spans {
		var s span
		var pick []int
		switch kind := rng.Intn(6); kind {
		case 0: // no majority value: c = 0 under a residual on every column
			pick = rng.Perm(cols)
		case 1: // all-constant
			s.c = rng.NormFloat64()
		case 2: // empty: zero
		case 3: // residual pinned to the first and last column
			s.c = rng.NormFloat64()
			pick = []int{0, cols - 1}
		default: // the forest's shape: a constant plus a few entries
			if rng.Intn(2) == 0 {
				s.c = rng.NormFloat64()
			}
			pick = rng.Perm(cols)[:rng.Intn(cols/3+1)]
		}
		if i%3 == 2 {
			s = spans[i-1] // a shared span, like a device's center leaves
		} else {
			slices.Sort(pick)
			pick = slices.Compact(pick)
			for _, k := range pick {
				s.cols = append(s.cols, int32(k))
				v := rng.NormFloat64()
				if rng.Intn(8) == 0 {
					v = s.c // an entry equal to its row's constant
				}
				s.vals = append(s.vals, v)
			}
			total += len(s.cols)
		}
		spans[i] = s
	}
	m := NewConstSparse(rows, cols, total)
	col, val := m.Residual()
	off, lo := 0, 0
	for i, s := range spans {
		if i%3 != 2 {
			lo = off
			off += copy(col[off:], s.cols)
			copy(val[lo:], s.vals)
		}
		m.SetRow(i, s.c, lo, lo+len(s.cols))
	}
	return m
}

// constSparseShapes are the (rows, k, n) triples of the kernel tests: the
// benchmark's first layers (GCN and GAT input widths at hidden 16, one
// Shards=N shard), a one-column W, a one-column input, and random ones.
func constSparseShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{600, 118, 16}, {600, 128, 16}, {28, 96, 16}, {40, 118, 8},
		{30, 50, 1}, {30, 1, 16}, {1, 7, 3}, {0, 5, 4},
	}
	for i := 0; i < 16; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(60), 1 + rng.Intn(40), 1 + rng.Intn(20)})
	}
	return shapes
}

// requireClose checks got against want entry by entry, each within the
// rounding either summation order can make: tol times the sum of the
// magnitudes of the entry's terms (scale, same shape as want).
func requireClose(t *testing.T, name string, want, got, scale *Matrix) {
	t.Helper()
	const tol = 1e-13
	for i, w := range want.Data() {
		g := got.Data()[i]
		if math.Abs(g-w) > tol*scale.Data()[i] || math.IsNaN(g) {
			t.Fatalf("%s: entry %d = %v, want %v (scale %v)", name, i, g, w, scale.Data()[i])
		}
	}
}

// absMatrix returns |m| entrywise, plus |c_i| in every entry of row i when
// c is given: the constant the view multiplies before subtracting it back.
func absMatrix(m *Matrix, c []float64) *Matrix {
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.Row(i)
		for j, v := range row {
			row[j] = math.Abs(v)
			if c != nil {
				row[j] += math.Abs(c[i])
			}
		}
	}
	return out
}

func TestConstSparseMatMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, s := range constSparseShapes(rng) {
		rows, k, n := s[0], s[1], s[2]
		name := fmt.Sprintf("%dx%d·%dx%d", rows, k, k, n)
		a := randConstSparse(rows, k, rng)
		w := saltedMatrix(k, n, rng)
		want := New(rows, n)
		MatMulInto(want, a.Dense(), w)
		got := Full(rows, n, math.NaN()) // the kernel overwrites
		ConstSparseMatMulInto(got, a, w, make([]float64, n))
		scale := MatMul(absMatrix(a.Dense(), a.c), absMatrix(w, nil))
		requireClose(t, name, want, got, scale)

		// A shard reads a row slice of the forest's view.
		if rows >= 4 {
			lo, hi := rows/4, rows-rows/4
			sub := a.SliceRows(lo, hi)
			gotSub := New(hi-lo, n)
			ConstSparseMatMulInto(gotSub, sub, w, make([]float64, n))
			requireBitIdentical(t, name+"/slice", got.SliceRows(lo, hi).Clone(), gotSub)
		}
	}
}

func TestConstSparseMatMulTNMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range constSparseShapes(rng) {
		rows, k, n := s[0], s[1], s[2]
		name := fmt.Sprintf("(%dx%d)ᵀ·%dx%d", rows, k, rows, n)
		a := randConstSparse(rows, k, rng)
		g := saltedMatrix(rows, n, rng)
		init := positiveSalted(k, n, rng)
		want := init.Clone()
		MatMulTNAddInto(want, a.Dense(), g)
		got := init.Clone()
		ConstSparseMatMulTNAddInto(got, a, g, make([]float64, n))
		scale := absMatrix(init, nil)
		MatMulTNAddInto(scale, absMatrix(a.Dense(), a.c), absMatrix(g, nil))
		requireClose(t, name, want, got, scale)

		if rows >= 4 {
			lo, hi := rows/4, rows-rows/4
			sub, gsub := a.SliceRows(lo, hi), g.SliceRows(lo, hi)
			want := init.Clone()
			MatMulTNAddInto(want, sub.Dense(), gsub)
			got := init.Clone()
			ConstSparseMatMulTNAddInto(got, sub, gsub, make([]float64, n))
			requireClose(t, name+"/slice", want, got, scale)
		}
	}
}

// A row with constant 0 and ascending residual columns sums the same terms
// in the same order as the dense kernel's zero-skipping loop: bit for bit.
func TestConstSparseZeroConstantRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rows, k, n := 50, 118, 16
	dense := saltedMatrix(rows, k, rng)
	entries := 0
	for _, v := range dense.Data() {
		if v != 0 {
			entries++
		}
	}
	a := NewConstSparse(rows, k, entries)
	col, val := a.Residual()
	off := 0
	for i := 0; i < rows; i++ {
		lo := off
		for j, v := range dense.Row(i) {
			if v != 0 {
				col[off], val[off] = int32(j), v
				off++
			}
		}
		a.SetRow(i, 0, lo, off)
	}
	w := saltedMatrix(k, n, rng)
	want, got := New(rows, n), New(rows, n)
	MatMulInto(want, dense, w)
	ConstSparseMatMulInto(got, a, w, make([]float64, n))
	requireBitIdentical(t, "zero-constant rows", want, got)
}

func TestConstSparseDenseAndSlice(t *testing.T) {
	m := NewConstSparse(4, 5, 3)
	col, val := m.Residual()
	copy(col, []int32{0, 4, 2})
	copy(val, []float64{1.5, -2, math.Copysign(0, -1)})
	m.SetRow(0, 0.25, 0, 2) // constant with first- and last-column entries
	m.SetRow(1, 0, 0, 0)    // empty
	m.SetRow(2, 0.25, 0, 2) // shares row 0's span
	m.SetRow(3, 3, 2, 3)    // a −0 entry under a nonzero constant
	want := FromRows([][]float64{
		{1.5, 0.25, 0.25, 0.25, -2},
		{0, 0, 0, 0, 0},
		{1.5, 0.25, 0.25, 0.25, -2},
		{3, 3, math.Copysign(0, -1), 3, 3},
	})
	requireBitIdentical(t, "Dense", want, m.Dense())
	if got := m.Entries(); got != 5 {
		t.Fatalf("Entries = %d, want 5 (a shared span counts per row)", got)
	}
	requireBitIdentical(t, "SliceRows", want.SliceRows(1, 3).Clone(), m.SliceRows(1, 3).Dense())
	if r, c := m.SliceRows(1, 3).Rows(), m.SliceRows(1, 3).Cols(); r != 2 || c != 5 {
		t.Fatalf("slice is %dx%d, want 2x5", r, c)
	}
}
