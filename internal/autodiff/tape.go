package autodiff

import (
	"fmt"
	"math/bits"

	"lumos/internal/tensor"
)

// firstChunk is the length of a tape's first Value-slab chunk; chunk c holds
// firstChunk·2^c Values, so a tape's slab is at most twice what it records
// (a one-device shard's 10-node tape holds 16) and a tape that records n
// nodes has ~log2(n/firstChunk) chunks. Chunks are never reallocated, so a
// growing tape never relocates live Values — pointers handed out by node
// constructors stay valid for the life of the tape.
const firstChunk = 16

// chunkOf returns the slab chunk holding tape index i and i's offset in it:
// chunk c starts at firstChunk·(2^c − 1).
func chunkOf(i int) (c, off int) {
	c = bits.Len(uint(i/firstChunk+1)) - 1
	return c, i - firstChunk*(1<<c-1)
}

// bufPool is the free-list for one matrix shape: buffers checked out since
// the last Reset live in bufs[:next], recyclable ones in bufs[next:]. free
// holds checked-out gradient buffers a backward sweep has released (see
// Tape.sweep); they are handed out again before the pool grows.
type bufPool struct {
	bufs []*tensor.Matrix
	next int
	free []*tensor.Matrix
}

// Tape owns the memory of a differentiation graph that is rebuilt with the
// same structure over and over — an epoch's forward pass. Every op records
// its result node onto the tape its inputs carry, in construction order, so
// Backward is a reverse linear sweep with no topological sort; Reset
// recycles every node and every buffer (outputs, gradients, op scratch) for
// the next epoch instead of dropping them to the garbage collector. After the
// first epoch warms the arenas, steady-state epochs allocate almost nothing.
//
// A graph enters its tape through Var/Const leaves, and every op over them
// draws its buffers from the tape's shape-keyed free-list. Parameters (the
// package-level Var) are on no tape and may feed ops on any tape. An op with
// no taped input, or with inputs from two tapes, panics: to combine values
// from two tapes, cut one side into a leaf of the other (Tape.Const or
// Tape.Var over its Data) and replay the cut's gradient with
// BackwardWithGradient.
//
// Nodes live in a slab of chunks that starts at firstChunk Values and doubles
// as the tape grows, so a small tape (a one-device shard's) costs a few kB,
// not a fixed-size slab; newValue finds the next slot in O(1) and Backward
// walks the chunks in reverse.
//
// A Tape is not safe for concurrent use; give each worker its own (the
// engine keeps one per shard). Reset must not run while any Value or matrix
// handed out since the previous Reset is still in use — the memory is
// recycled, not freed.
type Tape struct {
	chunks [][]Value
	used   int
	pools  map[int64]*bufPool
}

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{pools: make(map[int64]*bufPool)}
}

// Len returns the number of live nodes recorded since the last Reset.
func (t *Tape) Len() int { return t.used }

// Reset recycles every node and buffer recorded since the last Reset. All
// Values and matrices previously handed out become invalid: the next epoch's
// ops will reuse their memory.
func (t *Tape) Reset() {
	t.used = 0
	for _, p := range t.pools {
		p.next = 0
		p.free = p.free[:0]
	}
}

// Matrix checks a zeroed rows×cols buffer out of the tape's free-list,
// growing it on first use. The buffer is owned by the tape and is recycled
// by the next Reset.
func (t *Tape) Matrix(rows, cols int) *tensor.Matrix {
	m := t.scratch(rows, cols)
	m.Zero()
	return m
}

// scratch is Matrix without the zeroing sweep, for ops that fully overwrite
// their output: a recycled buffer comes back with its previous contents.
func (t *Tape) scratch(rows, cols int) *tensor.Matrix {
	p := t.pool(rows, cols)
	if k := len(p.free) - 1; k >= 0 {
		m := p.free[k]
		p.free = p.free[:k]
		return m
	}
	if p.next == len(p.bufs) {
		p.bufs = append(p.bufs, tensor.New(rows, cols))
	}
	p.next++
	return p.bufs[p.next-1]
}

// pool returns the free-list for rows×cols buffers, creating it on first
// use.
func (t *Tape) pool(rows, cols int) *bufPool {
	key := int64(rows)<<32 | int64(uint32(cols))
	p := t.pools[key]
	if p == nil {
		p = &bufPool{}
		t.pools[key] = p
	}
	return p
}

// newValue checks the next node out of the slab, growing it by one chunk
// (twice the last) when exhausted. The node comes back field-reset, keeping
// only its parents slice capacity (so steady-state epochs re-record parents
// without allocating).
func (t *Tape) newValue() *Value {
	ci, off := chunkOf(t.used)
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Value, firstChunk<<ci))
	}
	v := &t.chunks[ci][off]
	parents := v.parents[:0]
	*v = Value{tape: t, ti: t.used, parents: parents}
	t.used++
	return v
}

// node records an op result whose requiresGrad is inherited from parents.
// The backward function and parent list are only retained when some parent
// needs a gradient.
func (t *Tape) node(data *tensor.Matrix, bk backward, parents ...*Value) *Value {
	return t.nodeOf(data, bk, parents)
}

// nodeOf is node for a parent list held in several slices: the node's
// parents are the groups concatenated in order.
func (t *Tape) nodeOf(data *tensor.Matrix, bk backward, groups ...[]*Value) *Value {
	out := t.newValue()
	out.Data = data
	for _, ps := range groups {
		for _, p := range ps {
			out.requiresGrad = out.requiresGrad || p.requiresGrad
		}
	}
	if out.requiresGrad {
		out.parents = out.parents[:0]
		for _, ps := range groups {
			out.parents = append(out.parents, ps...)
		}
		out.back = bk
	}
	return out
}

// Var records a trainable leaf on the tape. The matrix is caller-owned (not
// recycled); the leaf's gradient buffer comes from the tape's free-list.
func (t *Tape) Var(m *tensor.Matrix) *Value {
	v := t.newValue()
	v.Data = m
	v.requiresGrad = true
	return v
}

// Const records a non-trainable leaf on the tape. The matrix is
// caller-owned.
func (t *Tape) Const(m *tensor.Matrix) *Value {
	v := t.newValue()
	v.Data = m
	return v
}

// ConstSparse records a non-trainable leaf that carries a second form of
// its matrix: m as a row constant plus a sparse residual (view must equal m,
// and both are caller-owned). Data is still the dense m, so every op reads
// the leaf as it reads a Const — except MatMul with the leaf on the left,
// which multiplies through the view instead (tensor.ConstSparseMatMulInto)
// and accumulates its right operand's gradient the same way. The product
// then costs O(rows + residual entries) row operations instead of
// O(rows × cols), and differs from the dense one only in summation order.
// The leaf never takes a gradient.
func (t *Tape) ConstSparse(m *tensor.Matrix, view *tensor.ConstSparse) *Value {
	if view.Rows() != m.Rows() || view.Cols() != m.Cols() {
		panic(fmt.Sprintf("autodiff: ConstSparse view %dx%d for a %dx%d matrix", view.Rows(), view.Cols(), m.Rows(), m.Cols()))
	}
	v := t.newValue()
	v.Data = m
	v.sparse = view
	return v
}

// sweep runs the backward pass over nodes [0, from] in reverse recording
// order. Recording order is a topological order (an op's parents exist
// before it), so the reverse sweep visits every node after all its
// consumers; nodes the seeded gradient never reached are skipped. Once a
// node's backward function has run nothing reads its gradient again, so the
// buffer goes back to its shape's free-list — except the root's, which the
// caller seeded and may still read.
func (t *Tape) sweep(from int) {
	ci, off := chunkOf(from)
	root := true
	for ; ci >= 0; ci-- {
		chunk := t.chunks[ci][:off+1]
		for j := len(chunk) - 1; j >= 0; j-- {
			if v := &chunk[j]; v.Grad != nil && v.back != nil {
				v.back(v)
				if !root {
					t.recycle(v.Grad)
					v.Grad = nil
				}
			}
			root = false
		}
		off = firstChunk<<ci/2 - 1 // the chunk before ci is half its length
	}
}

// recycle puts m, a buffer checked out of the tape that nothing reads any
// more, on its shape's free-list for the next scratch or Matrix.
func (t *Tape) recycle(m *tensor.Matrix) {
	p := t.pool(m.Dims())
	p.free = append(p.free, m)
}
