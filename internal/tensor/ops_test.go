package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSubMulScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Add(a, b); !ApproxEqual(got, FromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !ApproxEqual(got, Full(2, 2, 4), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := MulElem(a, b); !ApproxEqual(got, FromRows([][]float64{{5, 12}, {21, 32}}), 0) {
		t.Fatalf("MulElem = %v", got)
	}
	if got := Scale(a, 2); !ApproxEqual(got, FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAddShapeMismatch(t *testing.T) {
	defer expectPanic(t, "Add shape mismatch")
	Add(New(2, 2), New(2, 3))
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
	ScaleInPlace(a, 10)
	if a.At(0, 1) != 10 {
		t.Fatalf("ScaleInPlace = %v", a)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if got := MatMul(a, b); !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Uniform(5, 5, -1, 1, rng)
	if !ApproxEqual(MatMul(a, Eye(5)), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !ApproxEqual(MatMul(Eye(5), a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulDimMismatch(t *testing.T) {
	defer expectPanic(t, "MatMul inner dims")
	MatMul(New(2, 3), New(2, 3))
}

func TestQuickMatMulAssociativeWithVector(t *testing.T) {
	// (A·B)·x == A·(B·x) for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Uniform(4, 3, -2, 2, rng)
		b := Uniform(3, 5, -2, 2, rng)
		x := Uniform(5, 1, -2, 2, rng)
		return ApproxEqual(MatMul(MatMul(a, b), x), MatMul(a, MatMul(b, x)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := Transpose(a)
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v", at)
	}
	if !ApproxEqual(Transpose(at), a, 0) {
		t.Fatal("double transpose changed the matrix")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if got := AddRowVector(a, v); !ApproxEqual(got, want, 0) {
		t.Fatalf("AddRowVector = %v", got)
	}
}

func TestSumRowsMeanSum(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := SumRows(a); !ApproxEqual(got, FromRows([][]float64{{4, 6}}), 0) {
		t.Fatalf("SumRows = %v", got)
	}
	if Sum(a) != 10 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 2.5 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if Mean(New(0, 0)) != 0 {
		t.Fatal("Mean of empty must be 0")
	}
}

func TestApply(t *testing.T) {
	a := FromRows([][]float64{{-1, 4}})
	got := Apply(a, math.Abs)
	if got.At(0, 0) != 1 || got.At(0, 1) != 4 {
		t.Fatalf("Apply = %v", got)
	}
}

func TestGatherScatter(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := Gather(a, []int{2, 0, 2})
	want := FromRows([][]float64{{3, 3}, {1, 1}, {3, 3}})
	if !ApproxEqual(g, want, 0) {
		t.Fatalf("Gather = %v", g)
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

func TestGatherOutOfRange(t *testing.T) {
	defer expectPanic(t, "Gather out of range")
	Gather(New(2, 2), []int{5})
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
		ga := Gather(a, idx)
		lhs := Sum(MulElem(ga, b))
		sc := New(6, 3)
		ScatterAddRows(sc, b, idx)
		rhs := Sum(MulElem(a, sc))
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
	s := SoftmaxRows(a)
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
	if math.Abs(Norm2(a)-5) > 1e-12 {
		t.Fatalf("Norm2 = %v", Norm2(a))
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

func TestVStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	v := VStack(a, nil, b, New(0, 2))
	if v.Rows() != 3 || v.At(2, 1) != 6 {
		t.Fatalf("VStack = %v", v)
	}
	if e := VStack(); e.Rows() != 0 {
		t.Fatal("VStack() should be empty")
	}
}

func TestVStackColsMismatch(t *testing.T) {
	defer expectPanic(t, "VStack cols mismatch")
	VStack(New(1, 2), New(1, 3))
}

func TestHStack(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	h := HStack(a, b)
	if h.Cols() != 3 || h.At(1, 2) != 6 || h.At(0, 0) != 1 {
		t.Fatalf("HStack = %v", h)
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
	// Force the parallel path with a product above the flop threshold and
	// compare against the serial row kernel.
	rng := rand.New(rand.NewSource(77))
	a := Uniform(700, 300, -1, 1, rng)
	b := Uniform(300, 64, -1, 1, rng)
	got := MatMul(a, b) // 700*300*64 ≈ 13.4M flops → parallel
	want := New(700, 64)
	matMulRows(a, b, want, 0, 700)
	if !ApproxEqual(got, want, 0) {
		t.Fatal("parallel MatMul differs from serial kernel")
	}
}

func TestSumInto(t *testing.T) {
	dst := FromRows([][]float64{{1, 2}, {3, 4}})
	a := FromRows([][]float64{{10, 20}, {30, 40}})
	b := FromRows([][]float64{{100, 200}, {300, 400}})
	SumInto(dst, a, nil, b)
	want := FromRows([][]float64{{111, 222}, {333, 444}})
	if !ApproxEqual(dst, want, 0) {
		t.Fatalf("SumInto = %v, want %v", dst, want)
	}
	SumInto(dst) // no sources: no-op
	if !ApproxEqual(dst, want, 0) {
		t.Fatal("SumInto with no sources changed dst")
	}
}

func TestSumIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	SumInto(New(2, 2), New(2, 3))
}
