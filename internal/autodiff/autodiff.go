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

// op is what a recorded node keeps of the operation that made it: back
// computes its parents' gradients from v.Grad, and readsOut and readsIn
// declare whether back reads the node's own Data and its parents' Data
// (their shapes included). Tape.Release hands back every op output that no
// recorded op declares it reads, so a declaration that leaves out a read
// turns into a nil-pointer panic in back. Every op is a package-level value
// over a shared top-level function (no per-node closure allocation); the
// op's payload lives in the Value's auxiliary fields, which back may always
// read.
type op struct {
	back              func(v *Value)
	readsOut, readsIn bool
}

// Value is one node in the differentiation graph: a matrix plus, after
// Backward, the gradient of the loss with respect to it.
type Value struct {
	// Data holds the forward result. It is nil on an op node whose buffer
	// Tape.Release handed back (the node keeps only its shape).
	Data *tensor.Matrix
	// Grad holds dLoss/dData after Backward; nil if no gradient flowed here.
	// On a tape only leaves (Tape.Var, Const, ConstSparse) and the root of
	// the backward keep it: an op node's gradient goes back to the tape's
	// free-list once its backward function has run, leaving Grad nil.
	// Parameters keep theirs until ZeroGrad.
	Grad *tensor.Matrix

	requiresGrad bool
	// keep marks the node, during Tape.Release, as one whose Data a
	// backward reads.
	keep bool
	// buf is the index of Data's buffer in the owning tape's held list;
	// −1 for a leaf (caller-owned Data) and once released.
	buf int32
	// rows, cols are a released node's shape.
	rows, cols int32
	tape       *Tape // owning tape; nil for parameters
	ti         int   // index on the owning tape
	parents    []*Value
	op         *op

	// Op payload. Which fields are live depends on the op; keeping them
	// inline (instead of closed over) is what makes recording allocation-free
	// once the tape's slab is warm, and sharing them between roles keeps a
	// Value at 256 bytes.
	s      float64
	n      int
	ints   []int
	ints2  []int
	rowSrc [][]int
	rowDst [][]int
	fs     []float64
	// mat is an op's payload matrix. On a parameter, which records no op,
	// it retains the last gradient buffer ZeroGrad detached (or RecycleGrad
	// gave) so EnsureGrad can recycle it instead of reallocating.
	mat *tensor.Matrix
	// codes is an op's byte per entry of what its backward needs to know
	// (a tape byte buffer; see Tape.scratchBytes).
	codes []byte
	// sparse is a Tape.ConstSparse leaf's row-constant-plus-residual form
	// of Data.
	sparse *tensor.ConstSparse
}

// Var wraps a matrix as a parameter: a trainable leaf on no tape, whose
// gradient accumulates across every graph that reads it until ZeroGrad.
func Var(m *tensor.Matrix) *Value {
	return &Value{Data: m, requiresGrad: true}
}

// ZeroGrad discards the stored gradient. The buffer is retained internally
// and recycled by the next EnsureGrad, so parameters that are zeroed and
// re-accumulated every epoch stop churning the allocator; the observable
// semantics are unchanged (Grad == nil until a gradient arrives).
func (v *Value) ZeroGrad() {
	if v.Grad != nil && v.tape == nil {
		v.mat = v.Grad
	}
	v.Grad = nil
}

// EnsureGrad returns the gradient buffer, allocating (or recycling) a zeroed
// one if none is attached: tape-bound values draw from their tape's
// free-list, parameters reuse the buffer retained by ZeroGrad or given by
// RecycleGrad.
func (v *Value) EnsureGrad() *tensor.Matrix {
	if v.Grad == nil {
		r, c := int(v.rows), int(v.cols)
		if v.Data != nil {
			r, c = v.Data.Dims()
		}
		switch {
		case v.tape != nil:
			v.Grad = v.tape.Matrix(r, c)
		case v.mat != nil && v.mat.Rows() == r && v.mat.Cols() == c:
			v.Grad = v.mat
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
	v.Grad = nil
	if v.tape == nil {
		v.mat = nil
	}
	return g
}

// RecycleGrad gives a parameter that holds no gradient a spare buffer
// for its next EnsureGrad (which zeroes it) — the way back for a buffer
// DetachGrad handed out once its holder is done with it.
func (v *Value) RecycleGrad(buf *tensor.Matrix) {
	if v.Grad != nil {
		panic("autodiff: RecycleGrad on a value holding a gradient")
	}
	if v.tape != nil {
		panic("autodiff: RecycleGrad on a value on a tape")
	}
	v.mat = buf
}

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
		out := t.node(data, opMatMulConstSparse, a, b)
		out.mat = ws
		return out
	}
	tensor.MatMulInto(data, a.Data, b.Data)
	return t.node(data, opMatMul, a, b)
}

var (
	opMatMul = &op{back: backMatMul, readsIn: true}
	// The view kernels read the left leaf's sparse form, never its Data.
	opMatMulConstSparse = &op{back: backMatMulConstSparse}
)

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

// AddRow adds the 1×c row vector r to every row of a.
func AddRow(a, r *Value) *Value {
	t := tapeFor("AddRow", a, r)
	data := t.scratch(a.Data.Rows(), a.Data.Cols())
	tensor.AddRowVectorInto(data, a.Data, r.Data)
	return t.node(data, opAddRow, a, r)
}

var opAddRow = &op{back: backAddRow}

func backAddRow(v *Value) {
	a, r := v.parents[0], v.parents[1]
	a.accum(v.Grad)
	if r.requiresGrad {
		tensor.AddRowSumsInPlace(r.EnsureGrad(), v.Grad)
	}
}

// ---------------------------------------------------------------------------
// Activations and regularization
// ---------------------------------------------------------------------------

// BiasReLUDropout is a hidden layer's activation as one op: it equals the
// chain Dropout(ReLU(AddRow(a, b)), p, rng, training) of the oracle ops in
// oracles_test.go bit for bit — output and
// both parents' gradients, non-finite gradients included — and draws the
// same rng.Float64() per entry, in row-major order, only when training and
// p > 0. Where the chain records three nodes over four activation-sized
// buffers, the op records one node that keeps its output and, when it
// drops, one byte per entry: what the ReLU and the dropout did there.
//
// With y = a + b[j], the output is (y > 0 ? y : +0)·m, m being the kept
// entries' 1/(1−p) or 0 (1 in eval mode or at p = 0). Backward passes
// 0 + (0 + g·m) to a and to b (summed over rows in ascending order) where
// y > 0, and +0 elsewhere. An entry's byte says maskBlocked where the ReLU
// blocked (whatever the dropout drew), else maskDropped or maskKept, so
// that a dropped entry (m = +0) still passes g·0 — NaN for a non-finite g —
// as the chain does. Without a mask (no dropout), y > 0 exactly where the
// output is > 0.
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
	keep, bd := 1/(1-p), b.Data.Data()
	if !drop {
		for i := 0; i < rows; i++ {
			ar, orow := a.Data.Row(i), data.Row(i)
			for j, x := range ar {
				if y := x + bd[j]; y > 0 {
					orow[j] = y
				} else {
					orow[j] = 0
				}
			}
		}
		return t.node(data, opBiasReLU, a, b)
	}
	mask := t.scratchBytes(rows * cols)
	for i := 0; i < rows; i++ {
		ar, orow := a.Data.Row(i), data.Row(i)
		mr := mask[i*cols : i*cols+cols : i*cols+cols]
		mr = mr[:len(ar)]
		for j, x := range ar {
			y := x + bd[j]
			r, m, c := 0.0, 0.0, maskDropped
			if y > 0 {
				r = y
			}
			if rng.Float64() >= p {
				m, c = keep, maskKept
			}
			orow[j] = r * m
			if !(y > 0) {
				c = maskBlocked
			}
			mr[j] = c
		}
	}
	out := t.node(data, opBiasReLUDropout, a, b)
	out.codes, out.s = mask, keep
	return out
}

// BiasReLUDropout's mask codes.
const (
	maskBlocked byte = iota // the ReLU blocked: the backward passes +0
	maskDropped             // dropped: it passes 0 + (0 + g·0)
	maskKept                // kept: it passes 0 + (0 + g·(1/(1−p)))
)

var (
	// Without a mask, the backward finds the ReLU's pass-through entries
	// in the output.
	opBiasReLU = &op{back: backBiasReLUDropout, readsOut: true}
	// With one, the mask says all the backward needs.
	opBiasReLUDropout = &op{back: backBiasReLUDropout}
)

// backBiasReLUDropout writes the gradient the chain's AddRow received into
// a buffer and accumulates it with AddRow's own kernels, so the parents'
// gradients match the chain's to the NaN payload. The buffer is a's fresh
// gradient when a held none (0 + d equals d here: d is never −0), else a
// tape buffer returned to the free-list at once.
func backBiasReLUDropout(v *Value) {
	a, b := v.parents[0], v.parents[1]
	rows, cols := v.Grad.Dims()
	fresh := a.requiresGrad && a.Grad == nil
	var d *tensor.Matrix
	if fresh {
		d = a.EnsureGrad()
	} else {
		d = v.tape.scratch(rows, cols)
	}
	keep := v.s
	for i := 0; i < rows; i++ {
		dr, gr := d.Row(i), v.Grad.Row(i)
		if v.codes == nil {
			orow := v.Data.Row(i)
			for j, g := range gr {
				dr[j] = 0 // what a blocked entry passes
				if orow[j] > 0 {
					dr[j] = 0 + g
				}
			}
			continue
		}
		mr := v.codes[i*cols : i*cols+cols : i*cols+cols]
		mr = mr[:len(gr)]
		for j, g := range gr {
			dr[j] = 0 // what a blocked entry passes
			if c := mr[j]; c != maskBlocked {
				m := 0.0
				if c == maskKept {
					m = keep
				}
				dr[j] = 0 + (0 + g*m)
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
