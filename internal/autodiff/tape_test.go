package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
// leaf, the tape ends holding the k outputs plus at most three
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
		if n := len(tp.held); n > k+3 {
			t.Fatalf("k=%d: the tape holds %d buffers, want ≤ %d outputs + 3 gradients", k, n, k)
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
	y.BackwardWithGradient(tensor.Full(1, 1, 1))
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

// heldBuffers returns the buffers tp has checked out.
func heldBuffers(tp *Tape) map[*tensor.Matrix]bool {
	held := map[*tensor.Matrix]bool{}
	for _, m := range tp.held {
		if m != nil {
			held[m] = true
		}
	}
	return held
}

// TestPoolSharedAcrossTapes: tapes on one Pool hold buffers only between
// their first op and their Reset, which hands every one back; the next tape
// to record the same graph checks out exactly those buffers, allocating
// none. Recording in turn and on two goroutines at once (the race
// detector's case: the pool is the tapes' only shared state), every loss
// and gradient equals the same graph's on a tape that keeps its own
// buffers, bit for bit.
func TestPoolSharedAcrossTapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Uniform(3, 4, -1, 1, rng)
	wm := tensor.Uniform(4, 2, -1, 1, rng)
	bm := tensor.Uniform(1, 2, -1, 1, rng)
	wantLoss, wantGW, wantGB := tapeGraph(NewTape(), Var(wm), Var(bm), x)
	check := func(name string, loss float64, gw, gb *tensor.Matrix) {
		t.Helper()
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s: loss %v, want %v", name, loss, wantLoss)
		}
		matIdentical(t, name+" dW", gw, wantGW)
		matIdentical(t, name+" dB", gb, wantGB)
	}

	pool := NewPool()
	a, b := pool.NewTape(), pool.NewTape()
	loss, gw, gb := tapeGraph(a, Var(wm), Var(bm), x)
	check("tape a", loss, gw, gb)
	held, bytes := heldBuffers(a), a.Bytes()
	if bytes == 0 || pool.Bytes() != 0 {
		t.Fatalf("recording tape holds %d B with %d B left in the pool; want all of it on the tape", bytes, pool.Bytes())
	}
	a.Reset()
	if a.Bytes() != 0 || pool.Bytes() != bytes {
		t.Fatalf("after Reset the tape holds %d B and the pool %d B; want 0 and %d", a.Bytes(), pool.Bytes(), bytes)
	}
	loss, gw, gb = tapeGraph(b, Var(wm), Var(bm), x)
	check("tape b after a", loss, gw, gb)
	got := heldBuffers(b)
	for m := range held {
		if !got[m] {
			t.Fatal("tape b allocated a buffer instead of reusing one tape a handed back")
		}
	}
	if len(got) != len(held) || pool.Bytes() != 0 {
		t.Fatalf("tape b holds %d buffers (tape a held %d) and left %d B in the pool", len(got), len(held), pool.Bytes())
	}
	b.Reset()

	var wg sync.WaitGroup
	var diverged [2]bool
	for k, tp := range []*Tape{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tp.Reset()
			for range 50 {
				tp.Reset()
				loss, gw, gb := tapeGraph(tp, Var(wm), Var(bm), x)
				if math.Float64bits(loss) != math.Float64bits(wantLoss) || !tensor.ApproxEqual(gw, wantGW, 0) || !tensor.ApproxEqual(gb, wantGB, 0) {
					diverged[k] = true
					return
				}
			}
		}()
	}
	wg.Wait()
	if diverged[0] || diverged[1] {
		t.Fatalf("tapes recording concurrently on one pool diverged from the private tape: %v", diverged)
	}
	if pool.Bytes() < bytes || pool.Bytes() > 2*bytes {
		t.Fatalf("after two concurrent tapes the pool holds %d B; want between one and two tapes' %d B", pool.Bytes(), bytes)
	}
}

// TestReleaseKeepsWhatBackwardReads: on a GCN-shaped shard graph — a first
// layer through a ConstSparse input, CSR aggregation, the fused hidden
// activation with dropout, a second layer with its bias, and the leaf
// pooling — Release leaves the tape holding exactly the buffers the
// backward reads: the hidden activation, the view kernel's workspace and
// the root partial, and the dropout mask as one byte buffer of an entry per
// hidden entry. The other five activations go back to
// the pool; their nodes keep their shapes but no Data, so an op over one
// panics. The backward computes the weight gradients of the unreleased
// recording bit for bit, and a warm tape records, releases and sweeps
// without allocating.
func TestReleaseKeepsWhatBackwardReads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	conv := tensor.NewCSR(5, []int{0, 1, 2, 3, 4, 1, 0, 2}, []int{0, 0, 1, 2, 3, 4, 4, 1})
	norm := []float64{0.5, 0.25, 1, 0.75, -0.5, 1.5, 0.2, 0.6}
	pool := tensor.NewCSR(2, []int{0, 2, 4}, []int{0, 1, 1})
	coef := []float64{1, 0.5, 0.5}
	params := []*Value{
		Var(tensor.Uniform(4, 3, -1, 1, rng)), Var(tensor.Uniform(1, 3, -1, 1, rng)),
		Var(tensor.Uniform(3, 3, -1, 1, rng)), Var(tensor.Uniform(1, 3, -1, 1, rng)),
	}
	seed := tensor.Uniform(2, 3, -1, 1, rng)
	x := gradSparseX.Dense()
	type recording struct{ a1, c1, h1, a2, c2, d2, p *Value }
	record := func(tp *Tape, drop *rand.Rand, release bool) recording {
		tp.Reset()
		for _, p := range params {
			p.ZeroGrad()
		}
		var r recording
		r.a1 = MatMul(tp.ConstSparse(x, gradSparseX), params[0])
		r.c1 = CSRAggregate(r.a1, conv, norm)
		r.h1 = BiasReLUDropout(r.c1, params[1], 0.3, drop, true)
		r.a2 = MatMul(r.h1, params[2])
		r.c2 = CSRAggregate(r.a2, conv, norm)
		r.d2 = AddRow(r.c2, params[3])
		r.p = CSRAggregate(r.d2, pool, coef)
		if release {
			tp.Release(r.p)
		}
		return r
	}
	grads := func() []*tensor.Matrix {
		var gs []*tensor.Matrix
		for _, p := range params {
			gs = append(gs, p.Grad.Clone())
		}
		return gs
	}

	record(NewTape(), rand.New(rand.NewSource(9)), false).p.BackwardWithGradient(seed)
	want := grads()

	tp := NewTape()
	r := record(tp, rand.New(rand.NewSource(9)), true)
	kept := map[*tensor.Matrix]bool{r.h1.Data: true, r.a1.mat: true, r.p.Data: true}
	held := heldBuffers(tp)
	if len(held) != len(kept) {
		t.Fatalf("the tape holds %d buffers after Release, want the %d the backward reads", len(held), len(kept))
	}
	for m := range kept {
		if m == nil || !held[m] {
			t.Fatal("the tape released a buffer the backward reads")
		}
	}
	if len(tp.heldBytes) != 1 || &tp.heldBytes[0][0] != &r.h1.codes[0] || len(r.h1.codes) != 5*3 {
		t.Fatalf("the tape holds %d byte buffers after Release; want the hidden layer's 15-entry mask alone", len(tp.heldBytes))
	}
	for name, v := range map[string]*Value{"a1": r.a1, "c1": r.c1, "a2": r.a2, "c2": r.c2, "d2": r.d2} {
		if v.Data != nil || v.rows != 5 || v.cols != 3 {
			t.Fatalf("released node %s: Data %v, shape %dx%d; want nil Data and its 5x3 shape", name, v.Data != nil, v.rows, v.cols)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an op over a released node did not panic")
			}
		}()
		AddRow(r.c1, params[1])
	}()
	r.p.BackwardWithGradient(seed)
	for i, g := range grads() {
		requireBits(t, fmt.Sprintf("param %d gradient after Release", i), want[i], g)
	}

	drop := rand.New(rand.NewSource(9))
	if allocs := testing.AllocsPerRun(5, func() { record(tp, drop, true).p.BackwardWithGradient(seed) }); allocs != 0 {
		t.Fatalf("a warm tape records, releases and sweeps with %.0f allocations, want 0", allocs)
	}
}

// TestPoolByteBuffersAndTrim: a tape's byte buffers (here a dropout mask)
// come from its pool, count in Tape.Bytes and go back to the pool on Reset;
// the next tape on the pool checks out the same buffer.
// Pool.Trim empties the pool, and a recording after it allocates afresh and
// gives the same loss and gradients bit for bit.
func TestPoolByteBuffersAndTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xm := tensor.Uniform(6, 5, -1, 1, rng)
	w, b := Var(tensor.Uniform(5, 4, -1, 1, rng)), Var(tensor.Uniform(1, 4, -1, 1, rng))
	record := func(tp *Tape) (loss float64, mask []byte, gw, gb *tensor.Matrix) {
		w.ZeroGrad()
		b.ZeroGrad()
		h := BiasReLUDropout(MatMul(tp.Const(xm), w), b, 0.4, rand.New(rand.NewSource(12)), true)
		l := SumSquares(h)
		l.Backward()
		return l.Scalar(), h.codes, w.Grad.Clone(), b.Grad.Clone()
	}

	pool := NewPool()
	a, c := pool.NewTape(), pool.NewTape()
	wantLoss, mask, wantGW, wantGB := record(a)
	if len(a.heldBytes) != 1 || len(mask) != 6*4 || a.Bytes() <= capBytes(a.held) {
		t.Fatalf("tape holds %d byte buffers (mask of %d entries) and %d B in all; want the 24-byte mask counted", len(a.heldBytes), len(mask), a.Bytes())
	}
	bytes := a.Bytes()
	a.Reset()
	if pool.Bytes() != bytes {
		t.Fatalf("after Reset the pool holds %d B; want the tape's %d B", pool.Bytes(), bytes)
	}
	if _, got, _, _ := record(c); len(c.heldBytes) != 1 || &got[0] != &mask[0] || pool.Bytes() != bytes-c.Bytes() {
		t.Fatal("the second tape did not check out the byte buffer the first handed back")
	}
	c.Reset()

	pool.Trim()
	if pool.Bytes() != 0 {
		t.Fatalf("the pool holds %d B after Trim", pool.Bytes())
	}
	loss, again, gw, gb := record(a)
	if &again[0] == &mask[0] {
		t.Fatal("a recording after Trim reused a trimmed byte buffer")
	}
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss %v after Trim, %v before", loss, wantLoss)
	}
	requireBits(t, "dW after Trim", wantGW, gw)
	requireBits(t, "dB after Trim", wantGB, gb)
}
