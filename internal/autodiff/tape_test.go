package autodiff

import (
	"math/rand"
	"testing"

	"lumos/internal/tensor"
)

// tapeGraph records a small but representative graph (matmul, broadcast
// add, activation, gather/segment ops, loss) on the given tape (nil =
// untaped) and runs backward. It returns the loss value and the two
// parameter gradients.
func tapeGraph(t *Tape, w, b *Value, x *tensor.Matrix) (float64, *tensor.Matrix, *tensor.Matrix) {
	var xs *Value
	if t != nil {
		xs = t.Const(x)
	} else {
		xs = Const(x)
	}
	h := AddRow(MatMul(xs, w), b)
	h = ReLU(h)
	idx := []int{0, 1, 2, 2, 1}
	seg := []int{0, 0, 1, 1, 2}
	pool := tensor.NewCSR(3, []int{0, 1, 2, 3, 4}, seg)
	g := CSRAggregate(Gather(h, idx), pool, []float64{1, 0.5, 0.5, 1, 2})
	loss := MeanAll(SumSquares(g))
	loss.Backward()
	return loss.Scalar(), w.Grad, b.Grad
}

func matIdentical(t *testing.T, name string, a, b *tensor.Matrix) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil gradient (%v vs %v)", name, a, b)
	}
	if !tensor.ApproxEqual(a, b, 0) {
		t.Fatalf("%s: matrices differ:\n%v\nvs\n%v", name, a, b)
	}
}

// TestTapeMatchesUntaped locks in that recording on a tape changes nothing
// numerically: loss and parameter gradients are bit-identical to the
// classic untaped graph.
func TestTapeMatchesUntaped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Uniform(3, 4, -1, 1, rng)
	wm := tensor.Uniform(4, 2, -1, 1, rng)
	bm := tensor.Uniform(1, 2, -1, 1, rng)

	w0, b0 := Var(wm.Clone()), Var(bm.Clone())
	l0, gw0, gb0 := tapeGraph(nil, w0, b0, x)

	tp := NewTape()
	w1, b1 := Var(wm.Clone()), Var(bm.Clone())
	l1, gw1, gb1 := tapeGraph(tp, w1, b1, x)

	if l0 != l1 {
		t.Fatalf("taped loss %v != untaped loss %v", l1, l0)
	}
	matIdentical(t, "dW", gw0, gw1)
	matIdentical(t, "dB", gb0, gb1)
}

// TestTapeResetReuse is the tape lifecycle golden: Reset-then-re-record
// produces bit-identical losses and gradients for several consecutive
// epochs, while actually recycling memory (the same node and buffer
// storage comes back after every Reset).
func TestTapeResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Uniform(3, 4, -1, 1, rng)
	wm := tensor.Uniform(4, 2, -1, 1, rng)
	bm := tensor.Uniform(1, 2, -1, 1, rng)

	tp := NewTape()
	w, b := Var(wm), Var(bm)

	var refLoss float64
	var refGW, refGB *tensor.Matrix
	var nodes int
	var firstEpochOut *tensor.Matrix
	for epoch := 0; epoch < 4; epoch++ {
		tp.Reset()
		w.ZeroGrad()
		b.ZeroGrad()
		loss, gw, gb := tapeGraph(tp, w, b, x)
		switch epoch {
		case 0:
			refLoss, refGW, refGB = loss, gw.Clone(), gb.Clone()
			nodes = tp.Len()
			firstEpochOut = tp.Matrix(7, 7) // probe buffer, recycled below
		default:
			if loss != refLoss {
				t.Fatalf("epoch %d: loss %v != first epoch %v", epoch, loss, refLoss)
			}
			matIdentical(t, "dW across reuse", refGW, gw)
			matIdentical(t, "dB across reuse", refGB, gb)
			if tp.Len() != nodes {
				t.Fatalf("epoch %d: %d nodes recorded, first epoch had %d", epoch, tp.Len(), nodes)
			}
			if probe := tp.Matrix(7, 7); probe != firstEpochOut {
				t.Fatal("tape did not recycle its buffers: same alloc sequence returned a different matrix")
			}
		}
	}
}

// TestTapeGradBufferRecycling checks the untaped shim-path fix: ZeroGrad
// retains the gradient buffer and EnsureGrad hands the same one back
// zeroed, while DetachGrad severs it for callers that queue gradients.
func TestTapeGradBufferRecycling(t *testing.T) {
	v := Var(tensor.Full(2, 3, 1))
	g1 := v.EnsureGrad()
	g1.Set(1, 2, 5)
	v.ZeroGrad()
	if v.Grad != nil {
		t.Fatal("ZeroGrad must leave Grad nil until a gradient arrives")
	}
	g2 := v.EnsureGrad()
	if g2 != g1 {
		t.Fatal("EnsureGrad after ZeroGrad must recycle the same buffer")
	}
	if g2.At(1, 2) != 0 {
		t.Fatal("recycled gradient buffer was not zeroed")
	}
	stolen := v.DetachGrad()
	if stolen != g1 {
		t.Fatal("DetachGrad must hand back the live buffer")
	}
	v.ZeroGrad()
	if g3 := v.EnsureGrad(); g3 == g1 {
		t.Fatal("EnsureGrad must not resurrect a detached buffer")
	}
}

// TestTapeMixedTapesFallBack checks the safety valve: an op whose parents
// live on two different tapes (or mix a tape with an untaped non-leaf)
// produces an untaped node whose depth-first backward still reaches every
// parameter.
func TestTapeMixedTapesFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t1, t2 := NewTape(), NewTape()
	x1 := t1.Const(tensor.Uniform(2, 2, -1, 1, rng))
	x2 := t2.Const(tensor.Uniform(2, 2, -1, 1, rng))
	w := Var(tensor.Uniform(2, 2, -1, 1, rng))

	a := MatMul(x1, w) // on t1
	b := MatMul(x2, w) // on t2
	sum := Add(a, b)   // mixed: must fall back to the untaped path
	if sum.tape != nil {
		t.Fatal("node mixing two tapes must be untaped")
	}
	loss := SumSquares(sum)
	if loss.tape != nil {
		t.Fatal("descendant of a mixed node must stay untaped")
	}
	loss.Backward()
	if w.Grad == nil {
		t.Fatal("depth-first fallback did not reach the shared parameter")
	}

	// Untaped non-leaf feeding a taped op: same fallback.
	u := ReLU(Scale(Var(tensor.Uniform(2, 2, -1, 1, rng)), 2)) // untaped chain
	mixed := Add(MatMul(x1, w), u)
	if mixed.tape != nil {
		t.Fatal("taped op over an untaped non-leaf must be untaped")
	}
}

// TestTapeBackwardSweepScope checks that a backward from a mid-tape root
// only touches its own ancestors: nodes recorded after the root keep nil
// gradients.
func TestTapeBackwardSweepScope(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tp := NewTape()
	w := Var(tensor.Uniform(2, 2, -1, 1, rng))
	x := tp.Const(tensor.Uniform(2, 2, -1, 1, rng))
	mid := MatMul(x, w)
	lossMid := SumSquares(mid)
	later := ReLU(mid) // recorded after the root of the backward below
	lossMid.Backward()
	if later.Grad != nil {
		t.Fatal("sweep leaked a gradient into a node recorded after the root")
	}
	if w.Grad == nil {
		t.Fatal("sweep missed the parameter")
	}
}
