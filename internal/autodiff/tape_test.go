package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"lumos/internal/tensor"
)

// tapeGraph records a small but representative graph (matmul, broadcast
// add, activation, gather and aggregation, loss) on tape t, with w and b as
// parameters, and runs backward. It returns the loss value and the two
// parameter gradients.
func tapeGraph(t *Tape, w, b *Value, x *tensor.Matrix) (float64, *tensor.Matrix, *tensor.Matrix) {
	h := AddRow(MatMul(t.Const(x), w), b)
	h = ReLU(h)
	idx := []int{0, 1, 2, 2, 1}
	seg := []int{0, 0, 1, 1, 2}
	pool := tensor.NewCSR(3, []int{0, 1, 2, 3, 4}, seg)
	g := CSRAggregate(Gather(h, idx), pool, []float64{1, 0.5, 0.5, 1, 2})
	loss := SumSquares(g)
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

// TestTapeGradBufferRecycling checks how a parameter keeps its gradient
// buffer: ZeroGrad retains it and EnsureGrad hands the same one back zeroed,
// while DetachGrad severs it for callers that queue gradients.
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

// TestTapeReleasesSweptGradients: a backward keeps only the gradients the
// rest of its sweep still reads. Over a chain of k same-shape ReLUs from a
// leaf, the shape's pool ends holding the k outputs plus at most three
// gradients — the root's and two in flight — where keeping every node's
// gradient took k + 1. Afterwards only the leaf and the root hold a
// gradient, the leaf's is exact, and a warm tape re-records and sweeps the
// chain without allocating.
func TestTapeReleasesSweptGradients(t *testing.T) {
	const rows, cols = 3, 4
	rng := rand.New(rand.NewSource(6))
	xm := tensor.Uniform(rows, cols, -1, 1, rng)
	seed := tensor.Uniform(rows, cols, -1, 1, rng)
	want := tensor.New(rows, cols)
	for i, x := range xm.Data() {
		if x > 0 {
			want.Data()[i] = seed.Data()[i]
		}
	}
	for _, k := range []int{1, 2, 5, 20} {
		tp := NewTape()
		chain := make([]*Value, k)
		var x *Value
		record := func() {
			tp.Reset()
			x = tp.Var(xm)
			h := x
			for i := range chain {
				h = ReLU(h)
				chain[i] = h
			}
			h.BackwardWithGradient(seed)
		}
		record()
		if chain[k-1].Grad == nil {
			t.Fatalf("k=%d: the root lost its gradient", k)
		}
		for i, v := range chain[:k-1] {
			if v.Grad != nil {
				t.Fatalf("k=%d: node %d kept its gradient after the sweep", k, i)
			}
		}
		requireBits(t, "leaf gradient", want, x.Grad)
		if n := len(tp.pool(rows, cols).bufs); n > k+3 {
			t.Fatalf("k=%d: the pool holds %d buffers, want ≤ %d outputs + 3 gradients", k, n, k)
		}
		if allocs := testing.AllocsPerRun(5, record); allocs != 0 {
			t.Fatalf("k=%d: a warm tape records and sweeps the chain with %.0f allocations, want 0", k, allocs)
		}
	}
}

// A tape's slab is sized to what it records: a 10-node graph (a one-device
// shard's) fits in the first chunk, at most 4 kB. Growing through several
// chunks never moves a recorded Value, and after Reset the same storage
// comes back in the same order without a new chunk.
func TestTapeSlabSizedToRecording(t *testing.T) {
	slabBytes := func(tp *Tape) uintptr {
		n := 0
		for _, c := range tp.chunks {
			n += cap(c)
		}
		return uintptr(n) * unsafe.Sizeof(Value{})
	}
	tp := NewTape()
	m := tensor.New(1, 1)
	for i := 0; i < 10; i++ {
		tp.Const(m)
	}
	if b := slabBytes(tp); b > 4096 {
		t.Fatalf("10-node tape holds a %d B slab, want ≤ 4096", b)
	}

	const n = 1000
	tp.Reset()
	mats := make([]*tensor.Matrix, n)
	vals := make([]*Value, n)
	for i := range vals {
		mats[i] = tensor.New(1, 1)
		vals[i] = tp.Const(mats[i])
	}
	if len(tp.chunks) < 5 {
		t.Fatalf("%d nodes recorded in %d chunks, want growth through several", n, len(tp.chunks))
	}
	if b := slabBytes(tp); b > 2*n*unsafe.Sizeof(Value{}) {
		t.Fatalf("%d-node tape holds a %d B slab, more than twice its nodes", n, b)
	}
	for i, v := range vals {
		c, off := chunkOf(i)
		if &tp.chunks[c][off] != v || v.Data != mats[i] || v.ti != i || v.tape != tp {
			t.Fatalf("node %d moved or was overwritten while the slab grew", i)
		}
	}
	chunks := len(tp.chunks)
	tp.Reset()
	for i := range vals {
		if v := tp.Const(mats[n-1-i]); v != vals[i] {
			t.Fatalf("after Reset node %d came back at different storage", i)
		}
	}
	if len(tp.chunks) != chunks {
		t.Fatalf("re-recording after Reset grew the slab from %d to %d chunks", chunks, len(tp.chunks))
	}

	// Backward crosses every chunk boundary: the gradient of a chain of
	// n−1 doublings reaches its leaf only if every node is swept.
	tp.Reset()
	x := tp.Var(tensor.New(1, 1))
	y := x
	for i := 1; i < n; i++ {
		y = Scale(y, 2)
	}
	seed := tensor.New(1, 1)
	seed.Fill(1)
	y.BackwardWithGradient(seed)
	if got, want := x.Grad.At(0, 0), math.Ldexp(1, n-1); got != want {
		t.Fatalf("gradient through a %d-node chain = %v, want 2^%d", n, got, n-1)
	}
}

// A ConstSparse leaf reads as its dense matrix to every op but MatMul, whose
// product and weight gradient go through the view: equal to the Const
// leaf's up to summation order, with no gradient on the leaf itself, and no
// new allocation once the tape is warm.
func TestConstSparseLeafMatMul(t *testing.T) {
	x := gradSparseX.Dense()
	w := Var(tensor.Uniform(4, 3, -1, 1, rand.New(rand.NewSource(9))))
	record := func(tp *Tape, sparse bool) (*Value, *Value) {
		tp.Reset()
		w.ZeroGrad()
		leaf := tp.Const(x)
		if sparse {
			leaf = tp.ConstSparse(x, gradSparseX)
		}
		out := MatMul(leaf, w)
		SumSquares(out).Backward()
		return leaf, out
	}
	_, dense := record(NewTape(), false)
	wantOut, wantGrad := dense.Data.Clone(), w.Grad.Clone()
	tp := NewTape()
	leaf, out := record(tp, true)
	if leaf.Data != x || leaf.Grad != nil {
		t.Fatal("a ConstSparse leaf must hold the dense matrix and take no gradient")
	}
	for _, c := range []struct {
		name      string
		got, want *tensor.Matrix
	}{{"product", out.Data, wantOut}, {"weight gradient", w.Grad, wantGrad}} {
		if !tensor.ApproxEqual(c.got, c.want, 1e-14) {
			t.Fatalf("%s through the view:\n%v\nwant\n%v", c.name, c.got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { record(tp, true) }); allocs != 0 {
		t.Fatalf("warm ConstSparse MatMul allocated %v times per recording", allocs)
	}
}
