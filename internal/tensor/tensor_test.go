package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("dims = %d,%d", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("entry (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("unexpected matrix %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer expectPanic(t, "ragged FromRows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows = %dx%d", m.Rows(), m.Cols())
	}
}

func TestEye(t *testing.T) {
	m := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("eye(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestFull(t *testing.T) {
	m := Full(2, 3, 7.5)
	if sum(m) != 7.5*6 {
		t.Fatalf("Full sum = %v", sum(m))
	}
}

func TestSetRowAndRow(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{4, 5, 6})
	r := m.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("row = %v", r)
	}
	r[0] = 9 // Row aliases storage
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestSetRowBadLength(t *testing.T) {
	defer expectPanic(t, "SetRow with wrong length")
	New(2, 3).SetRow(0, []float64{1})
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestCopyFromShapeMismatch(t *testing.T) {
	defer expectPanic(t, "CopyFrom shape mismatch")
	New(2, 2).CopyFrom(New(3, 2))
}

func TestZeroAndFill(t *testing.T) {
	m := Full(2, 2, 3)
	m.Zero()
	if sum(m) != 0 {
		t.Fatal("Zero failed")
	}
	if m = Full(2, 2, 2); sum(m) != 8 {
		t.Fatal("Full failed")
	}
}

func TestAtOutOfRange(t *testing.T) {
	defer expectPanic(t, "At out of range")
	New(2, 2).At(2, 0)
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Glorot(30, 20, rng)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data() {
		if v < -limit || v > limit {
			t.Fatalf("glorot value %v outside ±%v", v, limit)
		}
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Uniform(50, 50, -2, 3, rng)
	for _, v := range m.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v outside [-2,3)", v)
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	large := New(20, 20)
	if large.String() != "Matrix(20x20)" {
		t.Fatalf("large String = %q", large.String())
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows%8)+1, int(cols%8)+1
		m := Uniform(r, c, -1, 1, rand.New(rand.NewSource(seed)))
		return ApproxEqual(m, m.Clone(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

func TestSliceRowsIsAView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	v := m.SliceRows(1, 3)
	if v.Rows() != 2 || v.Cols() != 2 {
		t.Fatalf("view dims %dx%d, want 2x2", v.Rows(), v.Cols())
	}
	if v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("view content wrong: %v", v)
	}
	m.Set(1, 0, 30)
	if v.At(0, 0) != 30 {
		t.Fatal("view did not observe write through parent")
	}
	if empty := m.SliceRows(2, 2); empty.Rows() != 0 {
		t.Fatalf("empty slice has %d rows", empty.Rows())
	}
}

func TestSliceRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range slice")
		}
	}()
	New(3, 2).SliceRows(1, 4)
}
