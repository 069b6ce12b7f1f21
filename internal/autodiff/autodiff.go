// Package autodiff implements reverse-mode automatic differentiation over
// dense matrices. It is the numerical core of the GNN trainers: every layer
// (GCN, GAT, linear heads, the tree message passing, POOL) is expressed in
// terms of the differentiable operations defined here.
//
// The engine is a tape: ops record their result nodes in construction order
// onto the Tape carried by their inputs, so Backward on a tape-bound value
// is a reverse linear sweep — no topological sort — and Tape.Reset recycles
// every node and buffer for the next epoch (see Tape). Values created with
// the package-level Var/Const constructors carry no tape; ops over them
// allocate freshly and Backward falls back to a depth-first topological
// sort, which is the right mode for long-lived parameters and one-off
// graphs. The two modes mix freely: parameters are untaped leaves inside
// taped epoch graphs, and a node whose parents disagree about their tape
// simply drops to the untaped path.
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
	Grad *tensor.Matrix

	requiresGrad bool
	tape         *Tape // owning tape; nil for untaped values
	ti           int   // index on the owning tape
	parents      []*Value
	back         backward
	// gradBuf retains the last detached-by-ZeroGrad gradient buffer of an
	// untaped value so EnsureGrad can recycle it instead of reallocating.
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
}

// Var wraps a matrix as a trainable leaf (gradients are accumulated).
func Var(m *tensor.Matrix) *Value {
	return &Value{Data: m, requiresGrad: true}
}

// Const wraps a matrix as a non-trainable leaf (no gradient is stored).
func Const(m *tensor.Matrix) *Value {
	return &Value{Data: m}
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
// free-list, untaped values reuse the buffer retained by ZeroGrad.
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

// RecycleGrad gives an untaped value that holds no gradient a spare buffer
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

// tapeFor returns the tape a new node should record onto: the unanimous
// tape of its parents. It returns nil — selecting the untaped path, whose
// depth-first backward can traverse anything — when no parent carries a
// tape, when two parents carry different tapes, or when an untaped
// non-leaf parent exists (its backward would be unreachable from a linear
// sweep of the tape).
func tapeFor(parents ...*Value) *Tape {
	var t *Tape
	for _, p := range parents {
		switch {
		case p.tape != nil:
			if t == nil {
				t = p.tape
			} else if t != p.tape {
				return nil
			}
		case p.back != nil:
			return nil
		}
	}
	return t
}

// newMatrix allocates a rows×cols output or scratch buffer: from the tape's
// free-list when t is non-nil, freshly otherwise. A pooled buffer keeps its
// previous contents — callers must fully overwrite it (accumulating
// consumers use newZeroMatrix instead). The untaped path always returns a
// zeroed matrix, so relying on stale contents is impossible to get right
// accidentally: the reuse goldens compare the two paths bit for bit.
func newMatrix(t *Tape, rows, cols int) *tensor.Matrix {
	if t != nil {
		m, _ := t.rawMatrix(rows, cols)
		return m
	}
	return tensor.New(rows, cols)
}

// newZeroMatrix is newMatrix with guaranteed-zero contents, for outputs
// that are accumulated into (scatter-adds, gradient buffers, dropout masks)
// rather than fully written.
func newZeroMatrix(t *Tape, rows, cols int) *tensor.Matrix {
	if t != nil {
		return t.Matrix(rows, cols)
	}
	return tensor.New(rows, cols)
}

// newNode builds an op result on tape t (or untaped when t is nil) whose
// requiresGrad is inherited from parents. The backward function and parent
// list are only retained when some parent needs a gradient.
func newNode(t *Tape, data *tensor.Matrix, bk backward, parents ...*Value) *Value {
	var out *Value
	if t != nil {
		out = t.newValue()
	} else {
		out = &Value{}
	}
	out.Data = data
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.parents = append(out.parents[:0], parents...)
		out.back = bk
	}
	return out
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
// subgraph in reverse topological order. The receiver's Grad must already
// be seeded. Tape-bound receivers sweep the tape linearly; untaped
// receivers fall back to a depth-first topological sort, which also covers
// graphs spanning several tapes.
func (v *Value) propagate() {
	if v.tape != nil {
		v.tape.sweep(v.ti)
		return
	}
	order := topoSort(v)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.Grad != nil && n.back != nil {
			n.back(n)
		}
	}
}

// topoSort returns the reachable gradient-requiring subgraph in topological
// order (parents before children), iteratively to avoid deep recursion on
// large graphs.
func topoSort(root *Value) []*Value {
	var order []*Value
	visited := make(map[*Value]bool)
	type frame struct {
		v    *Value
		next int
	}
	stack := []frame{{v: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.v.parents) {
			p := f.v.parents[f.next]
			f.next++
			if !visited[p] && p.requiresGrad {
				visited[p] = true
				stack = append(stack, frame{v: p})
			}
			continue
		}
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	return order
}

// ---------------------------------------------------------------------------
// Linear algebra ops
// ---------------------------------------------------------------------------

// MatMul returns a·b.
func MatMul(a, b *Value) *Value {
	t := tapeFor(a, b)
	data := newMatrix(t, a.Data.Rows(), b.Data.Cols())
	tensor.MatMulInto(data, a.Data, b.Data)
	return newNode(t, data, backMatMul, a, b)
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
	t := tapeFor(a, b)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.AddInto(data, a.Data, b.Data)
	return newNode(t, data, backFanIn, a, b)
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
	t := tapeFor(a, b)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.SubInto(data, a.Data, b.Data)
	return newNode(t, data, backSub, a, b)
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
	t := tapeFor(a, r)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.AddRowVectorInto(data, a.Data, r.Data)
	return newNode(t, data, backAddRow, a, r)
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
	t := tapeFor(a, b)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.MulElemInto(data, a.Data, b.Data)
	return newNode(t, data, backMulElem, a, b)
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
	t := tapeFor(a)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.ScaleInto(data, a.Data, s)
	out := newNode(t, data, backScale, a)
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
	t := tapeFor(vs...)
	data := newMatrix(t, vs[0].Data.Rows(), vs[0].Data.Cols())
	data.CopyFrom(vs[0].Data)
	for _, v := range vs[1:] {
		tensor.AddInPlace(data, v.Data)
	}
	return newNode(t, data, backFanIn, vs...)
}

// ---------------------------------------------------------------------------
// Activations and regularization
// ---------------------------------------------------------------------------

// ReLU returns max(0, a) elementwise.
func ReLU(a *Value) *Value {
	t := tapeFor(a)
	data := newZeroMatrix(t, a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		}
	}
	return newNode(t, data, backReLU, a)
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
	t := tapeFor(a)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		} else {
			od[i] = slope * x
		}
	}
	out := newNode(t, data, backLeakyReLU, a)
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

// Sigmoid returns 1/(1+e^{−a}) elementwise.
func Sigmoid(a *Value) *Value {
	t := tapeFor(a)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		od[i] = sigmoid(x)
	}
	return newNode(t, data, backSigmoid, a)
}

func backSigmoid(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	sd, od := v.Data.Data(), v.Grad.Data()
	for i := range sd {
		gd[i] += od[i] * sd[i] * (1 - sd[i])
	}
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Value) *Value {
	t := tapeFor(a)
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	ad, od := a.Data.Data(), data.Data()
	for i, x := range ad {
		od[i] = math.Tanh(x)
	}
	return newNode(t, data, backTanh, a)
}

func backTanh(v *Value) {
	a := v.parents[0]
	gd := a.EnsureGrad().Data()
	td, od := v.Data.Data(), v.Grad.Data()
	for i := range td {
		gd[i] += od[i] * (1 - td[i]*td[i])
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
	t := tapeFor(a)
	keep := 1 / (1 - p)
	mask := newZeroMatrix(t, a.Data.Rows(), a.Data.Cols())
	md := mask.Data()
	for i := range md {
		if rng.Float64() >= p {
			md[i] = keep
		}
	}
	data := newMatrix(t, a.Data.Rows(), a.Data.Cols())
	tensor.MulElemInto(data, a.Data, mask)
	out := newNode(t, data, backDropout, a)
	out.mat = mask
	return out
}

func backDropout(v *Value) {
	tensor.MulElemAddInto(v.parents[0].EnsureGrad(), v.Grad, v.mat)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
