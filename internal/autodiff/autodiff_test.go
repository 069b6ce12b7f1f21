package autodiff

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lumos/internal/tensor"
)

// requirePanic runs f and requires it to panic with a message containing
// want.
func requirePanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestOpOnNoTapePanics: a graph starts at a tape's leaves, and an op over
// parameters alone has nowhere to record.
func TestOpOnNoTapePanics(t *testing.T) {
	w := Var(tensor.New(2, 2))
	requirePanic(t, "MatMul over values on no tape", func() { MatMul(w, w) })
	requirePanic(t, "ScatterAddN over values on no tape", func() {
		ScatterAddN(2, []*Value{w}, nil, [][]int{{0, 1}})
	})
}

// TestOpOverTwoTapesPanics: an op over values from two tapes has no single
// sweep that reaches both; a parameter among them changes nothing.
func TestOpOverTwoTapesPanics(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a, b := t1.Const(tensor.New(2, 2)), t2.Const(tensor.New(2, 2))
	requirePanic(t, "Add over values from two tapes", func() { Add(a, b) })
	w := Var(tensor.New(2, 2))
	requirePanic(t, "AddN over values from two tapes", func() { AddN(a, w, b) })
}

func TestSegmentSoftmaxNormalizes(t *testing.T) {
	e := NewTape().Const(tensor.FromRows([][]float64{{100}, {101}, {-5}, {3}, {3}}))
	out := SegmentSoftmax(e, []int{0, 0, 1, 1, 1}, 2)
	s0 := out.Data.At(0, 0) + out.Data.At(1, 0)
	s1 := out.Data.At(2, 0) + out.Data.At(3, 0) + out.Data.At(4, 0)
	if math.Abs(s0-1) > 1e-12 || math.Abs(s1-1) > 1e-12 {
		t.Fatalf("segments sum to %v and %v", s0, s1)
	}
	if out.Data.At(3, 0) != out.Data.At(4, 0) {
		t.Fatal("equal scores must share attention")
	}
}

// TestGradDropoutMask checks the identity path and the training-mode
// scaling property, then the finite-difference row (a fixed mask).
func TestGradDropoutMask(t *testing.T) {
	runGradRows(t)
	rng := rand.New(rand.NewSource(12))
	a := NewTape().Var(tensor.Uniform(100, 10, -1, 1, rng))
	out := Dropout(a, 0.5, rand.New(rand.NewSource(1)), false)
	if out != a {
		t.Fatal("eval-mode dropout must be the identity")
	}
	tr := Dropout(a, 0.5, rand.New(rand.NewSource(1)), true)
	// Each surviving entry must be exactly 2× the input.
	ad, td := a.Data.Data(), tr.Data.Data()
	kept := 0
	for i := range ad {
		if td[i] != 0 {
			kept++
			if math.Abs(td[i]-2*ad[i]) > 1e-12 {
				t.Fatalf("survivor %d not rescaled: %v vs %v", i, td[i], ad[i])
			}
		}
	}
	if kept < 300 || kept > 700 {
		t.Fatalf("kept %d of 1000 at p=0.5", kept)
	}
	// Gradient flows only through the mask.
	SumAll(tr).Backward()
	for i := range ad {
		want := 0.0
		if td[i] != 0 {
			want = 2
		}
		if math.Abs(a.Grad.Data()[i]-want) > 1e-12 {
			t.Fatalf("dropout grad %d = %v, want %v", i, a.Grad.Data()[i], want)
		}
	}
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	a := NewTape().Var(tensor.FromRows([][]float64{{3}}))
	// loss = a*a → grad 2a = 6
	loss := SumAll(MulElem(a, a))
	loss.Backward()
	if got := a.Grad.At(0, 0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("grad = %v, want 6", got)
	}
}

// TestBackwardTwiceAccumulates: a parameter's gradient accumulates across
// graphs, including across a Reset of the tape they were recorded on.
func TestBackwardTwiceAccumulates(t *testing.T) {
	a := Var(tensor.FromRows([][]float64{{2}}))
	tp := NewTape()
	three := tensor.FromRows([][]float64{{3}})
	SumAll(MatMul(tp.Const(three), a)).Backward()
	tp.Reset()
	SumAll(MatMul(tp.Const(three), a)).Backward()
	if got := a.Grad.At(0, 0); got != 6 {
		t.Fatalf("accumulated grad = %v, want 6", got)
	}
	a.ZeroGrad()
	if a.Grad != nil {
		t.Fatal("ZeroGrad must clear")
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.FromRows([][]float64{{1, 2}}))
	v := tp.Var(tensor.FromRows([][]float64{{3, 4}}))
	SumAll(MulElem(c, v)).Backward()
	if c.Grad != nil {
		t.Fatal("constant must not accumulate gradient")
	}
	if v.Grad == nil {
		t.Fatal("variable must accumulate gradient")
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-scalar Backward")
		}
	}()
	Var(tensor.New(2, 2)).Backward()
}

func TestScalarAccessor(t *testing.T) {
	v := NewTape().Const(tensor.FromRows([][]float64{{42}}))
	if v.Scalar() != 42 {
		t.Fatal("Scalar accessor wrong")
	}
}

// TestDeepChainNoStackOverflow: a 20 000-node tape sweeps in one loop.
func TestDeepChainNoStackOverflow(t *testing.T) {
	const nodes = 20000
	tp := NewTape()
	v := tp.Var(tensor.FromRows([][]float64{{1}}))
	cur := v
	for i := 0; i < nodes-2; i++ {
		cur = Scale(cur, 1.0)
	}
	SumAll(cur).Backward()
	if tp.Len() != nodes {
		t.Fatalf("recorded %d nodes, want %d", tp.Len(), nodes)
	}
	if math.Abs(v.Grad.At(0, 0)-1) > 1e-9 {
		t.Fatalf("deep chain grad = %v", v.Grad.At(0, 0))
	}
}

func TestDiamondGraphGradient(t *testing.T) {
	// loss = (a+a) + (a*a): d/da = 2 + 2a = 8 at a=3.
	a := NewTape().Var(tensor.FromRows([][]float64{{3}}))
	loss := SumAll(Add(Add(a, a), MulElem(a, a)))
	loss.Backward()
	if got := a.Grad.At(0, 0); math.Abs(got-8) > 1e-12 {
		t.Fatalf("diamond grad = %v, want 8", got)
	}
}

func TestBackwardWithGradientMatchesSplitBackward(t *testing.T) {
	// Differentiating loss = sum(relu(x·W)) in one piece must agree with
	// cutting the graph at h = relu(x·W): backward the downstream piece, on
	// a second tape, from a fresh leaf sharing h's data, then replay the
	// leaf's gradient through the upstream piece with BackwardWithGradient.
	rng := rand.New(rand.NewSource(21))
	x := tensor.Uniform(5, 4, -1, 1, rng)
	wData := tensor.Uniform(4, 3, -1, 1, rng)

	whole := Var(wData.Clone())
	SumAll(ReLU(MatMul(NewTape().Const(x), whole))).Backward()

	split := Var(wData.Clone())
	h := ReLU(MatMul(NewTape().Const(x), split))
	cut := NewTape().Var(h.Data)
	SumAll(cut).Backward()
	h.BackwardWithGradient(cut.Grad)

	if !tensor.ApproxEqual(whole.Grad, split.Grad, 1e-12) {
		t.Fatalf("split backward grad %v != whole grad %v", split.Grad, whole.Grad)
	}
}

func TestBackwardWithGradientSeedScaling(t *testing.T) {
	// Seeding with 2·dL/dv must double the leaf gradients.
	a := NewTape().Var(tensor.FromRows([][]float64{{3}}))
	out := MulElem(a, a) // d(out)/da = 2a = 6
	out.BackwardWithGradient(tensor.FromRows([][]float64{{2}}))
	if got := a.Grad.At(0, 0); math.Abs(got-12) > 1e-12 {
		t.Fatalf("seeded grad = %v, want 12", got)
	}
}

func TestBackwardWithGradientNoGradRoot(t *testing.T) {
	// A constant root has no gradient path; the call must be a no-op.
	c := NewTape().Const(tensor.FromRows([][]float64{{1, 2}}))
	c.BackwardWithGradient(tensor.FromRows([][]float64{{1, 1}}))
	if c.Grad != nil {
		t.Fatal("gradient materialized on a constant")
	}
}

func TestBackwardWithGradientShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on seed shape mismatch")
		}
	}()
	a := Var(tensor.New(2, 2))
	a.BackwardWithGradient(tensor.New(1, 2))
}

func TestConcurrentBackwardDisjointGraphs(t *testing.T) {
	// The reentrancy contract: graphs that share only underlying matrix
	// data (not Values or tapes) may be differentiated concurrently, and the
	// summed gradients match a serial run. Run with -race to make this a real
	// test.
	rng := rand.New(rand.NewSource(22))
	x := tensor.Uniform(20, 8, -1, 1, rng)
	wData := tensor.Uniform(8, 4, -1, 1, rng)

	serial := Var(wData.Clone())
	SumAll(ReLU(MatMul(NewTape().Const(x), serial))).Backward()

	const workers = 8
	views := make([]*Value, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		views[i] = Var(wData)
		wg.Add(1)
		go func(v *Value) {
			defer wg.Done()
			SumAll(ReLU(MatMul(NewTape().Const(x), v))).Backward()
		}(views[i])
	}
	wg.Wait()
	sum := tensor.New(8, 4)
	for _, v := range views {
		tensor.AddInPlace(sum, v.Grad)
	}
	want := tensor.New(8, 4)
	tensor.ScaleInto(want, serial.Grad, workers)
	if !tensor.ApproxEqual(sum, want, 1e-9) {
		t.Fatal("concurrent disjoint backward diverged from serial")
	}
}
