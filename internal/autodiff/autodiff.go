// Package autodiff implements reverse-mode automatic differentiation over
// dense matrices. It is the numerical core of the GNN trainers: every layer
// (GCN, GAT, linear heads, the tree message passing, POOL) is expressed in
// terms of the differentiable operations defined here.
//
// Every graph records on a Tape: ops append their result nodes in
// construction order onto the one tape their inputs carry, so Backward is a
// reverse linear sweep of that tape, and Tape.Reset recycles every node and
// buffer for the next epoch (see Tape). A graph enters its tape through
// Tape.Var and Tape.Const leaves. Parameters are the one kind of value off
// any tape: Var leaves that outlive every epoch, read by ops on any number of
// tapes and accumulating their gradients in place. An op with no taped input,
// or with inputs from two tapes, panics.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"

	"lumos/internal/tensor"
)

// backward computes one recorded op's parent gradients from v.Grad. Hot ops
// use shared top-level functions here (no per-node closure allocation); the
// op's payload lives in the Value's auxiliary fields.
type backward func(v *Value)

// Value is one node in the differentiation graph: a matrix plus, after
// Backward, the gradient of the loss with respect to it.
type Value struct {
	// Data holds the forward result.
	Data *tensor.Matrix
	// Grad holds dLoss/dData after Backward; nil if no gradient flowed here.
	// On a tape only leaves (Tape.Var, Const, ConstSparse) and the root of
	// the backward keep it: an op node's gradient goes back to the tape's
	// free-list once its backward function has run, leaving Grad nil.
	// Parameters keep theirs until ZeroGrad.
	Grad *tensor.Matrix

	requiresGrad bool
	tape         *Tape // owning tape; nil for parameters
	ti           int   // index on the owning tape
	parents      []*Value
	back         backward
	// gradBuf retains the last detached-by-ZeroGrad gradient buffer of a
	// parameter so EnsureGrad can recycle it instead of reallocating.
	gradBuf *tensor.Matrix

	// Op payload. Which fields are live depends on the op; keeping them
	// inline (instead of closed over) is what makes recording allocation-free
	// once the tape's slab is warm. Cold ops (NoisyLabelCE) use a closure
	// instead.
	s      float64
	n      int
	ints   []int
	ints2  []int
	rowSrc [][]int
	rowDst [][]int
	fs     []float64
	mat    *tensor.Matrix
	// sparse is a Tape.ConstSparse leaf's row-constant-plus-residual form
	// of Data.
	sparse *tensor.ConstSparse
}

// Var wraps a matrix as a parameter: a trainable leaf on no tape, whose
// gradient accumulates across every graph that reads it until ZeroGrad.
func Var(m *tensor.Matrix) *Value {
	return &Value{Data: m, requiresGrad: true}
}

// RequiresGrad reports whether the value participates in differentiation.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// ZeroGrad discards the stored gradient. The buffer is retained internally
// and recycled by the next EnsureGrad, so parameters that are zeroed and
// re-accumulated every epoch stop churning the allocator; the observable
// semantics are unchanged (Grad == nil until a gradient arrives).
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.gradBuf, v.Grad = v.Grad, nil
	}
}

// EnsureGrad returns the gradient buffer, allocating (or recycling) a zeroed
// one if none is attached: tape-bound values draw from their tape's
// free-list, parameters reuse the buffer retained by ZeroGrad.
func (v *Value) EnsureGrad() *tensor.Matrix {
	if v.Grad == nil {
		r, c := v.Data.Dims()
		switch {
		case v.tape != nil:
			v.Grad = v.tape.Matrix(r, c)
		case v.gradBuf != nil && v.gradBuf.Rows() == r && v.gradBuf.Cols() == c:
			v.Grad = v.gradBuf
			v.Grad.Zero()
		default:
			v.Grad = tensor.New(r, c)
		}
	}
	return v.Grad
}

// DetachGrad hands the gradient buffer to the caller and severs it from the
// value entirely (no recycling), so the buffer can outlive the next
// ZeroGrad/EnsureGrad cycle — e.g. queued for stale application.
func (v *Value) DetachGrad() *tensor.Matrix {
	g := v.Grad
	v.Grad, v.gradBuf = nil, nil
	return g
}

// RecycleGrad gives a parameter that holds no gradient a spare buffer
// for its next EnsureGrad (which zeroes it) — the way back for a buffer
// DetachGrad handed out once its holder is done with it.
func (v *Value) RecycleGrad(buf *tensor.Matrix) {
	if v.Grad != nil {
		panic("autodiff: RecycleGrad on a value holding a gradient")
	}
	v.gradBuf = buf
}

// Rows returns the row count of the underlying matrix.
func (v *Value) Rows() int { return v.Data.Rows() }

// Cols returns the column count of the underlying matrix.
func (v *Value) Cols() int { return v.Data.Cols() }

// Scalar returns the single entry of a 1×1 value.
func (v *Value) Scalar() float64 {
	if v.Data.Rows() != 1 || v.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on %dx%d value", v.Data.Rows(), v.Data.Cols()))
	}
	return v.Data.At(0, 0)
}

// accum adds g into the gradient buffer, allocating it on first use.
func (v *Value) accum(g *tensor.Matrix) {
	if !v.requiresGrad {
		return
	}
	tensor.AddInPlace(v.EnsureGrad(), g)
}

// tapeFor returns the tape a new op node records onto: the one tape its
// parents carry. Parameters carry none and do not count. It panics, naming
// the op, when no parent is on a tape or two parents are on different ones.
func tapeFor(op string, parents ...*Value) *Tape {
	return tapeOf(op, parents)
}

// tapeOf is tapeFor over parents held in several slices.
func tapeOf(op string, groups ...[]*Value) *Tape {
	var t *Tape
	for _, ps := range groups {
		for _, p := range ps {
			if p.tape != nil && p.tape != t {
				if t != nil {
					panic("autodiff: " + op + " over values from two tapes")
				}
				t = p.tape
			}
		}
	}
	if t == nil {
		panic("autodiff: " + op + " over values on no tape (record an input with Tape.Var or Tape.Const)")
	}
	return t
}

// Backward computes gradients of the receiver (a 1×1 scalar, typically a
// loss) with respect to every reachable Var, accumulating into their Grad.
func (v *Value) Backward() {
	if v.Data.Rows() != 1 || v.Data.Cols() != 1 {
		panic(fmt.Sprintf("autodiff: Backward on non-scalar %dx%d value", v.Data.Rows(), v.Data.Cols()))
	}
	g := v.EnsureGrad()
	g.Set(0, 0, g.At(0, 0)+1)
	v.propagate()
}

// BackwardWithGradient seeds the receiver with the given upstream gradient
// dL/dv (same shape as v.Data) and propagates it to every reachable Var,
// accumulating into their Grad. It generalizes Backward to non-scalar roots,
// which is what lets a large graph be cut at an intermediate value: run
// Backward on the downstream piece, read the cut point's Grad, and replay it
// here as the seed of the upstream piece.
//
// Reentrancy: BackwardWithGradient (and Backward) may run concurrently on
// different roots provided the reachable gradient-requiring subgraphs are
// disjoint — gradient accumulation writes only to Values inside the
// traversed subgraph. Sharing a Var between two concurrently differentiated
// graphs is a data race; give each graph its own leaf (sharing the
// underlying matrix data is fine) and reduce the gradient buffers
// afterwards. The same applies to tapes: a Tape serves one goroutine at a
// time.
func (v *Value) BackwardWithGradient(seed *tensor.Matrix) {
	if !v.requiresGrad {
		return
	}
	if seed.Rows() != v.Data.Rows() || seed.Cols() != v.Data.Cols() {
		panic(fmt.Sprintf("autodiff: BackwardWithGradient seed %dx%d for %dx%d value",
			seed.Rows(), seed.Cols(), v.Data.Rows(), v.Data.Cols()))
	}
	v.accum(seed)
	v.propagate()
}

// propagate runs the backward functions of the receiver's reachable
// subgraph: a reverse sweep of its tape from the receiver down. The
// receiver's Grad must already be seeded; a parameter is a leaf, so seeding
// was all there was to do.
func (v *Value) propagate() {
	if v.tape != nil {
		v.tape.sweep(v.ti)
	}
}

// ---------------------------------------------------------------------------
// Linear algebra ops
// ---------------------------------------------------------------------------

// MatMul returns a·b. When a is a Tape.ConstSparse leaf — a shard's forest
// input in the engine's first layer — the product and b's gradient run
// through its sparse view: O(rows + residual entries) row operations
// instead of O(rows × cols), equal to the dense product up to summation
// order. A 1×b.Cols() tape buffer is the view kernels' workspace (column
// sums forward, the constant rows' gradient sum backward).
func MatMul(a, b *Value) *Value {
	t := tapeFor("MatMul", a, b)
	data := t.scratch(a.Data.Rows(), b.Data.Cols())
	if a.sparse != nil {
		ws := t.scratch(1, b.Data.Cols())
		tensor.ConstSparseMatMulInto(data, a.sparse, b.Data, ws.Data())
		out := t.node(data, backMatMulConstSparse, a, b)
		out.mat = ws
		return out
	}
	tensor.MatMulInto(data, a.Data, b.Data)
	return t.node(data, backMatMul, a, b)
}

// backMatMulConstSparse is backMatMul for a ConstSparse left operand, which
// takes no gradient.
func backMatMulConstSparse(v *Value) {
	if b := v.parents[1]; b.requiresGrad {
		tensor.ConstSparseMatMulTNAddInto(b.EnsureGrad(), v.parents[0].sparse, v.Grad, v.mat.Data())
	}
}

func backMatMul(v *Value) {
	a, b := v.parents[0], v.parents[1]
	if a.requiresGrad {
		tensor.MatMulNTAddInto(a.EnsureGrad(), v.Grad, b.Data)
	}
	if b.requiresGrad {
		tensor.MatMulTNAddInto(b.EnsureGrad(), a.Data, v.Grad)
	}
}

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	t := tapeFor("Add", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.AddInto(data, a.Data, b.Data)
	return t.node(data, backFanIn, a, b)
}

// backFanIn adds the output gradient to every parent — the backward of Add
// and AddN.
func backFanIn(v *Value) {
	for _, p := range v.parents {
		p.accum(v.Grad)
	}
}

// Sub returns a − b (same shape).
func Sub(a, b *Value) *Value {
	t := tapeFor("Sub", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.SubInto(data, a.Data, b.Data)
	return t.node(data, backSub, a, b)
}

func backSub(v *Value) {
	a, b := v.parents[0], v.parents[1]
	a.accum(v.Grad)
	if b.requiresGrad {
		tensor.AddScaledInPlace(b.EnsureGrad(), -1, v.Grad)
	}
}

// AddRow adds the 1×c row vector r to every row of a.
func AddRow(a, r *Value) *Value {
	t := tapeFor("AddRow", a, r)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.AddRowVectorInto(data, a.Data, r.Data)
	return t.node(data, backAddRow, a, r)
}

func backAddRow(v *Value) {
	a, r := v.parents[0], v.parents[1]
	a.accum(v.Grad)
	if r.requiresGrad {
		tensor.AddRowSumsInPlace(r.EnsureGrad(), v.Grad)
	}
}

// MulElem returns the elementwise product a ⊙ b.
func MulElem(a, b *Value) *Value {
	t := tapeFor("MulElem", a, b)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.MulElemInto(data, a.Data, b.Data)
	return t.node(data, backMulElem, a, b)
}

func backMulElem(v *Value) {
	a, b := v.parents[0], v.parents[1]
	if a.requiresGrad {
		tensor.MulElemAddInto(a.EnsureGrad(), v.Grad, b.Data)
	}
	if b.requiresGrad {
		tensor.MulElemAddInto(b.EnsureGrad(), v.Grad, a.Data)
	}
}

// Scale returns s·a for a constant s.
func Scale(a *Value, s float64) *Value {
	t := tapeFor("Scale", a)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.ScaleInto(data, a.Data, s)
	out := t.node(data, backScale, a)
	out.s = s
	return out
}

func backScale(v *Value) {
	tensor.AddScaledInPlace(v.parents[0].EnsureGrad(), v.s, v.Grad)
}

// AddN sums any number of same-shape values.
func AddN(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("autodiff: AddN of nothing")
	}
	t := tapeFor("AddN", vs...)
	data := t.scratch(vs[0].Data.Rows(), vs[0].Data.Cols())
	data.CopyFrom(vs[0].Data)
	for _, v := range vs[1:] {
		tensor.AddInPlace(data, v.Data)
	}
	return t.node(data, backFanIn, vs...)
}

// ---------------------------------------------------------------------------
// Activations and regularization
// ---------------------------------------------------------------------------

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	t := tapeFor("ReLU", a)
	data := t.Matrix(a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		}
	}
	return t.node(data, backReLU, a)
}

func backReLU(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	ad, od := a.Data.Data(), v.Grad.Data()
	for i := range ad {
		if ad[i] > 0 {
			gd[i] += od[i]
		}
	}
}

// LeakyReLU returns x for x>0 and slope·x otherwise, elementwise.
func LeakyReLU(a *Value, slope float64) *Value {
	t := tapeFor("LeakyReLU", a)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		} else {
			od[i] = slope * x
		}
	}
	out := t.node(data, backLeakyReLU, a)
	out.s = slope
	return out
}

func backLeakyReLU(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	ad, od := a.Data.Data(), v.Grad.Data()
	for i := range ad {
		if ad[i] > 0 {
			gd[i] += od[i]
		} else {
			gd[i] += v.s * od[i]
		}
	}
}

// Dropout zeroes entries with probability p and rescales survivors by
// 1/(1−p) when training is true; it is the identity otherwise.
func Dropout(a *Value, p float64, rng *rand.Rand, training bool) *Value {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autodiff: Dropout probability must be < 1")
	}
	t := tapeFor("Dropout", a)
	keep := 1 / (1 - p)
	mask := t.Matrix(a.Data.Rows(), a.Data.Cols())
	md := mask.Data()
	for i := range md {
		if rng.Float64() >= p {
			md[i] = keep
		}
	}
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.MulElemInto(data, a.Data, mask)
	out := t.node(data, backDropout, a)
	out.mat = mask
	return out
}

func backDropout(v *Value) {
	tensor.MulElemAddInto(v.parents[0].EnsureGrad(), v.Grad, v.mat)
}

// BiasReLUDropout is a hidden layer's activation as one op: it equals
// Dropout(ReLU(AddRow(a, b)), p, rng, training) bit for bit — output and
// both parents' gradients, non-finite gradients included — and draws the
// same rng.Float64() per entry, in row-major order, only when training and
// p > 0. Where the chain records three nodes over four activation-sized
// buffers, the op records one node that keeps its output and, when it
// drops, one multiplier per entry.
//
// With y = a + b[j], the output is (y > 0 ? y : +0)·m, m being the kept
// entries' 1/(1−p) or 0 (1 in eval mode or at p = 0). Backward passes
// 0 + (0 + g·m) to a and to b (summed over rows in ascending order) where
// y > 0, and +0 elsewhere. The stored multiplier is −0 where the ReLU
// blocked, so that a dropped entry (m = +0) still passes g·0 — NaN for a
// non-finite g — as the chain does. Without a multiplier (no dropout),
// y > 0 exactly where the output is > 0.
func BiasReLUDropout(a, b *Value, p float64, rng *rand.Rand, training bool) *Value {
	t := tapeFor("BiasReLUDropout", a, b)
	rows, cols := a.Data.Dims()
	if b.Data.Rows() != 1 || b.Data.Cols() != cols {
		panic(fmt.Sprintf("autodiff: BiasReLUDropout bias %dx%d for %dx%d", b.Data.Rows(), b.Data.Cols(), rows, cols))
	}
	drop := training && p > 0
	if drop && p >= 1 {
		panic("autodiff: Dropout probability must be < 1")
	}
	data := t.scratch(rows, cols)
	var mask *tensor.Matrix
	if drop {
		mask = t.scratch(rows, cols)
	}
	keep, bd := 1/(1-p), b.Data.Data()
	for i := 0; i < rows; i++ {
		ar, orow := a.Data.Row(i), data.Row(i)
		if !drop {
			for j, x := range ar {
				if y := x + bd[j]; y > 0 {
					orow[j] = y
				} else {
					orow[j] = 0
				}
			}
			continue
		}
		mr := mask.Row(i)
		for j, x := range ar {
			y := x + bd[j]
			r, m := 0.0, 0.0
			if y > 0 {
				r = y
			}
			if rng.Float64() >= p {
				m = keep
			}
			orow[j] = r * m
			if !(y > 0) {
				m = math.Copysign(0, -1)
			}
			mr[j] = m
		}
	}
	out := t.node(data, backBiasReLUDropout, a, b)
	out.mat = mask
	return out
}

// backBiasReLUDropout writes the gradient the chain's AddRow received into
// a buffer and accumulates it with AddRow's own kernels, so the parents'
// gradients match the chain's to the NaN payload. The buffer is a's fresh
// gradient when a held none (0 + d equals d here: d is never −0), else a
// tape buffer returned to the free-list at once.
func backBiasReLUDropout(v *Value) {
	a, b := v.parents[0], v.parents[1]
	fresh := a.requiresGrad && a.Grad == nil
	var d *tensor.Matrix
	if fresh {
		d = a.EnsureGrad()
	} else {
		d = v.tape.scratch(v.Data.Dims())
	}
	for i := 0; i < d.Rows(); i++ {
		dr, gr, orow := d.Row(i), v.Grad.Row(i), v.Data.Row(i)
		var mr []float64
		if v.mat != nil {
			mr = v.mat.Row(i)
		}
		for j, g := range gr {
			dr[j] = 0 // what a blocked entry passes
			switch {
			case mr == nil:
				if orow[j] > 0 {
					dr[j] = 0 + g
				}
			case !math.Signbit(mr[j]):
				dr[j] = 0 + (0 + g*mr[j])
			}
		}
	}
	if a.requiresGrad && !fresh {
		tensor.AddInPlace(a.Grad, d)
	}
	if b.requiresGrad {
		tensor.AddRowSumsInPlace(b.EnsureGrad(), d)
	}
	if !fresh {
		v.tape.recycle(d)
	}
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
