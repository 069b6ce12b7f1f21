package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddShapeMismatch(t *testing.T) {
	defer expectPanic(t, "AddInPlace shape mismatch")
	AddInPlace(New(2, 2), New(2, 3))
}

func TestInPlaceOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	AddInPlace(a, FromRows([][]float64{{1, 1}}))
	if a.At(0, 1) != 3 {
		t.Fatalf("AddInPlace = %v", a)
	}
	AddScaledInPlace(a, -2, FromRows([][]float64{{1, 1}}))
	if a.At(0, 0) != 0 || a.At(0, 1) != 1 {
		t.Fatalf("AddScaledInPlace = %v", a)
	}
	ScaleInto(a, a, 10)
	if a.At(0, 1) != 10 {
		t.Fatalf("ScaleInto in place = %v", a)
	}
}

// matMul returns a·b in a new matrix: the allocating form of MatMulInto.
func matMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if got := matMul(a, b); !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Uniform(5, 5, -1, 1, rng)
	if !ApproxEqual(matMul(a, Eye(5)), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !ApproxEqual(matMul(Eye(5), a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulDimMismatch(t *testing.T) {
	defer expectPanic(t, "MatMulInto inner dims")
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestQuickMatMulAssociativeWithVector(t *testing.T) {
	// (A·B)·x == A·(B·x) for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Uniform(4, 3, -2, 2, rng)
		b := Uniform(3, 5, -2, 2, rng)
		x := Uniform(5, 1, -2, 2, rng)
		return ApproxEqual(matMul(matMul(a, b), x), matMul(a, matMul(b, x)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	got := New(2, 2)
	if AddRowVectorInto(got, a, v); !ApproxEqual(got, want, 0) {
		t.Fatalf("AddRowVectorInto = %v", got)
	}
}

func TestSumRowsMeanSum(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := Full(1, 2, 1)
	if AddRowSumsInPlace(got, a); !ApproxEqual(got, FromRows([][]float64{{5, 7}}), 0) {
		t.Fatalf("AddRowSumsInPlace = %v", got)
	}
}

func TestGatherScatter(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := gather(a, []int{2, 0, 2})
	want := FromRows([][]float64{{3, 3}, {1, 1}, {3, 3}})
	if !ApproxEqual(g, want, 0) {
		t.Fatalf("gather = %v", g)
	}
	dst := New(3, 2)
	ScatterAddRows(dst, g, []int{1, 1, 0})
	// row1 += (3,3)+(1,1); row0 += (3,3)
	if dst.At(1, 0) != 4 || dst.At(0, 0) != 3 || dst.At(2, 0) != 0 {
		t.Fatalf("ScatterAddRows = %v", dst)
	}
}

func TestGatherAddRows(t *testing.T) {
	src := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	dst := Full(3, 2, 10)
	GatherAddRows(dst, src, []int{2, 0, 2})
	if want := FromRows([][]float64{{13, 13}, {11, 11}, {13, 13}}); !ApproxEqual(dst, want, 0) {
		t.Fatalf("GatherAddRows = %v", dst)
	}
	defer expectPanic(t, "GatherAddRows index list of the wrong length")
	GatherAddRows(dst, src, []int{0})
}

func TestQuickGatherScatterAdjoint(t *testing.T) {
	// <Gather(A,idx), B> == <A, ScatterAdd(B,idx)> — the adjoint identity
	// the autodiff backward pass relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Uniform(6, 3, -1, 1, rng)
		idx := make([]int, 10)
		for i := range idx {
			idx[i] = rng.Intn(6)
		}
		b := Uniform(10, 3, -1, 1, rng)
		lhs := dot(gather(a, idx), b)
		sc := New(6, 3)
		ScatterAddRows(sc, b, idx)
		rhs := dot(a, sc)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := RowDot(a, 0, a, 1); got != 4+10+18 {
		t.Fatalf("RowDot = %v", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	a := FromRows([][]float64{{0.2, 0.9, 0.1}, {5, 1, 7}})
	if ArgMaxRow(a, 0) != 1 || ArgMaxRow(a, 1) != 2 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromRows([][]float64{{1, 1, 1}, {1000, 1000, 1001}})
	s := New(2, 3)
	SoftmaxRowsInto(s, a)
	for i := 0; i < 2; i++ {
		rowSum := 0.0
		for j := 0; j < 3; j++ {
			rowSum += s.At(i, j)
		}
		if math.Abs(rowSum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, rowSum)
		}
	}
	if math.Abs(s.At(0, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform logits must give uniform softmax")
	}
	if HasNaN(s) {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestMaxAbsNorm(t *testing.T) {
	a := FromRows([][]float64{{-3, 4}})
	if MaxAbs(a) != 4 {
		t.Fatalf("MaxAbs = %v", MaxAbs(a))
	}
}

func TestHasNaN(t *testing.T) {
	a := New(1, 2)
	if HasNaN(a) {
		t.Fatal("zero matrix has no NaN")
	}
	a.Set(0, 1, math.Inf(1))
	if !HasNaN(a) {
		t.Fatal("Inf not detected")
	}
}

func TestApproxEqualShapes(t *testing.T) {
	if ApproxEqual(New(1, 2), New(2, 1), 1) {
		t.Fatal("shape mismatch must not be equal")
	}
	if !ApproxEqual(Full(2, 2, 1), Full(2, 2, 1.0005), 1e-3) {
		t.Fatal("within tolerance must be equal")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		// Force the parallel path with a product above the flop threshold and
		// compare against the serial row kernel.
		rng := rand.New(rand.NewSource(77))
		a := Uniform(700, 300, -1, 1, rng)
		b := Uniform(300, 64, -1, 1, rng)
		got := matMul(a, b) // 700*300*64 ≈ 13.4M flops → parallel
		want := New(700, 64)
		matMulRows(a, b, want, 0, 700)
		if !ApproxEqual(got, want, 0) {
			t.Fatal("parallel MatMulInto differs from serial kernel")
		}
	})
}

// gather returns the matrix whose i-th row is a.Row(idx[i]): the gather
// ScatterAddRows is the adjoint of.
func gather(a *Matrix, idx []int) *Matrix {
	out := New(len(idx), a.cols)
	for i, r := range idx {
		copy(out.Row(i), a.Row(r))
	}
	return out
}

// sum returns the sum of a's entries.
func sum(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// dot returns Σ a ⊙ b over same-shape matrices.
func dot(a, b *Matrix) float64 {
	a.sameShape(b, "dot")
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}
