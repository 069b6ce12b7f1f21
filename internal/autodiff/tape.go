package autodiff

import (
	"fmt"
	"math/bits"
	"sync"

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

// Tape owns the memory of a differentiation graph that is rebuilt with the
// same structure over and over — an epoch's forward pass. Every op records
// its result node onto the tape its inputs carry, in construction order, so
// Backward is a reverse linear sweep with no topological sort; Reset
// recycles every node and every buffer (outputs, gradients, op scratch) for
// the next epoch instead of dropping them to the garbage collector. After the
// first epoch warms the arenas, steady-state epochs allocate almost nothing.
//
// A graph enters its tape through Var/Const leaves, and every op over them
// draws its buffers from the tape's Pool. Parameters (the package-level Var)
// are on no tape and may feed ops on any tape. An op with no taped input, or
// with inputs from two tapes, panics: to combine values from two tapes, cut
// one side into a leaf of the other (Tape.Const or Tape.Var over its Data)
// and replay the cut's gradient with BackwardWithGradient.
//
// Nodes live in a slab of chunks that starts at firstChunk Values and doubles
// as the tape grows, so a small tape (a one-device shard's) costs a few kB,
// not a fixed-size slab; newValue finds the next slot in O(1) and Backward
// walks the chunks in reverse.
//
// Every tape draws its buffers from a Pool — float64 matrices, and byte
// buffers for the one-byte-per-entry codes an op may keep for its backward
// (a dropout mask, a LeakyReLU's branch) — and hands every one of them back
// on Reset: between a Reset and its next op a tape holds no buffer at all.
// A tape from NewTape has a pool of its own, so its next recording reuses
// its last one's buffers; tapes from Pool.NewTape share one, so tapes that
// record in turn (the engine's shard tapes) need one tape's working set, not
// each its own. Within a recording, a buffer comes back sooner twice over:
// a backward sweep reuses the gradients it is done with, and Release hands
// the pool every op output that no backward will read, and every op
// temporary already done with — what a tape keeps between its forward and
// its backward is only what the backward needs.
//
// A Tape serves one goroutine at a time; tapes on one Pool may record on
// different goroutines at once. Reset must not run while any Value or matrix
// handed out since the previous Reset is still in use — the memory is
// recycled, not freed.
type Tape struct {
	chunks [][]Value
	used   int
	// pool is where the tape's buffers come from and go back to on Reset;
	// own marks it as the tape's private pool (NewTape).
	pool *Pool
	own  bool
	// held lists the buffers checked out of pool since the last Reset, in
	// checkout order; Release nils the entries it hands back early.
	held []*tensor.Matrix
	// heldBytes lists the byte buffers checked out of pool since the last
	// Reset.
	heldBytes [][]byte
	// free holds, by size class, held buffers nothing reads any more (a
	// sweep's used gradients, an op's temporaries): scratch hands them out
	// again before it asks the pool.
	free [][]*tensor.Matrix
}

// NewTape returns an empty tape on a pool of its own.
func NewTape() *Tape {
	t := NewPool().NewTape()
	t.own = true
	return t
}

// Len returns the number of live nodes recorded since the last Reset.
func (t *Tape) Len() int { return t.used }

// Reset recycles every node and buffer recorded since the last Reset: the
// buffers go back to the tape's pool. All Values and matrices previously
// handed out become invalid: the next recording's ops will reuse their
// memory.
func (t *Tape) Reset() {
	t.used = 0
	t.pool.mu.Lock()
	// In reverse, so the pool's stacks hand them out again in checkout
	// order.
	for k := len(t.held) - 1; k >= 0; k-- {
		if m := t.held[k]; m != nil {
			t.pool.put(m)
		}
	}
	for k := len(t.heldBytes) - 1; k >= 0; k-- {
		t.pool.putBytes(t.heldBytes[k])
	}
	t.pool.mu.Unlock()
	clear(t.held)
	t.held = t.held[:0]
	clear(t.heldBytes)
	t.heldBytes = t.heldBytes[:0]
	for c := range t.free {
		clear(t.free[c])
		t.free[c] = t.free[c][:0]
	}
}

// Release hands back to the pool, ahead of Reset, the output buffer of every
// op recorded since the last Reset that no recorded backward reads: every op
// node's but the root's, those a consumer's backward reads as its parents'
// Data, and those the node's own backward reads (see op). Payload buffers an
// op keeps for its backward (a dropout mask, attention weights, a kernel
// workspace) stay; the temporaries an op put back on the tape's free-list
// go too. A released node keeps its shape, so a backward through it works as
// before and computes the same gradients bit for bit, but its Data is nil:
// any read of it panics. Release allocates nothing.
func (t *Tape) Release(root *Value) {
	if root.tape != t {
		panic("autodiff: Release of a root on another tape")
	}
	for i := 0; i < t.used; i++ {
		v := t.at(i)
		if v.op == nil {
			continue
		}
		v.keep = v.keep || v.op.readsOut
		if v.op.readsIn {
			for _, p := range v.parents {
				if p.tape == t {
					p.keep = true
				}
			}
		}
	}
	root.keep = true
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	for c, free := range t.free {
		for _, m := range free {
			t.pool.put(m)
			t.held[t.bufIndex(m)] = nil
		}
		clear(free)
		t.free[c] = free[:0]
	}
	for i := 0; i < t.used; i++ {
		v := t.at(i)
		if v.buf >= 0 && !v.keep {
			t.pool.put(v.Data)
			t.held[v.buf] = nil
			r, c := v.Data.Dims()
			v.rows, v.cols = int32(r), int32(c)
			v.Data, v.buf = nil, -1
		}
		v.keep = false
	}
}

// Bytes returns the capacity, in bytes, of the buffers the tape holds:
// those checked out since the last Reset and not released, byte buffers
// included, plus, on a tape with a pool of its own, the ones waiting there
// for its next recording.
func (t *Tape) Bytes() int64 {
	n := capBytes(t.held)
	for _, b := range t.heldBytes {
		n += int64(cap(b))
	}
	if t.own {
		n += t.pool.Bytes()
	}
	return n
}

// Matrix checks a zeroed rows×cols buffer out of the tape. The buffer is
// owned by the tape and is recycled by the next Reset.
func (t *Tape) Matrix(rows, cols int) *tensor.Matrix {
	m := t.scratch(rows, cols)
	m.Zero()
	return m
}

// scratch is Matrix without the zeroing sweep, for ops that fully overwrite
// their output: a recycled buffer comes back with its previous contents.
func (t *Tape) scratch(rows, cols int) *tensor.Matrix {
	if c := sizeClass(rows * cols); c < len(t.free) {
		if k := len(t.free[c]) - 1; k >= 0 {
			m := t.free[c][k]
			t.free[c] = t.free[c][:k]
			m.Reshape(rows, cols)
			return m
		}
	}
	m := t.pool.Get(rows, cols)
	t.held = append(t.held, m)
	return m
}

// scratchBytes checks a byte buffer of length n out of the tape, for an
// op's one-byte-per-entry payload. Its contents are unspecified; it goes
// back to the pool on Reset.
func (t *Tape) scratchBytes(n int) []byte {
	b := t.pool.getBytes(n)
	t.heldBytes = append(t.heldBytes, b)
	return b
}

// recycle puts m, a buffer checked out of the tape that nothing reads any
// more, on the tape's free-list for the next scratch or Matrix.
func (t *Tape) recycle(m *tensor.Matrix) {
	c := sizeClass(cap(m.Data()))
	for len(t.free) <= c {
		t.free = append(t.free, nil)
	}
	t.free[c] = append(t.free[c], m)
}

// bufIndex returns the index in held of m, an op's output buffer.
func (t *Tape) bufIndex(m *tensor.Matrix) int32 {
	for k := len(t.held) - 1; k >= 0; k-- {
		if t.held[k] == m {
			return int32(k)
		}
	}
	panic("autodiff: op output not checked out of its tape")
}

// Pool is a free-list of matrix buffers that tapes (see Pool.NewTape) and
// their owner draw from, keyed by size class: a rows×cols matrix is handed
// out over a prefix of a buffer of the smallest class holding rows·cols
// entries. The classes run 1, 2, 3, 4, 6, 8, 12, 16, … — the powers of two
// and the midpoints 3·2^k between them — so a buffer wastes under a third
// of itself, and matrices of different shapes (two shards' activations over
// trees of different sizes) reuse each other's buffers. It is safe for
// concurrent use. Byte buffers come in the same classes, counted in bytes,
// on free-lists of their own. A pool shrinks only when its owner calls
// Trim: until then it ends up holding, per class, the most buffers of that
// class its users ever had checked out at once.
type Pool struct {
	mu        sync.Mutex
	free      [][]*tensor.Matrix // by size class
	freeBytes [][][]byte         // by size class
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{}
}

// NewTape returns an empty tape whose buffers come from p and go back to it
// on every Reset.
func (p *Pool) NewTape() *Tape {
	return &Tape{pool: p}
}

// Get checks a rows×cols buffer out of the pool, allocating one of its
// size class if none is free. Its contents are unspecified.
func (p *Pool) Get(rows, cols int) *tensor.Matrix {
	c := sizeClass(rows * cols)
	p.mu.Lock()
	if c < len(p.free) {
		if k := len(p.free[c]) - 1; k >= 0 {
			m := p.free[c][k]
			p.free[c][k] = nil
			p.free[c] = p.free[c][:k]
			p.mu.Unlock()
			m.Reshape(rows, cols)
			return m
		}
	}
	p.mu.Unlock()
	m := tensor.New(1, classSize(c))
	m.Reshape(rows, cols)
	return m
}

// Put returns m to the pool. Nothing may read or write m afterwards.
func (p *Pool) Put(m *tensor.Matrix) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.put(m)
}

// put is Put with p.mu held. A buffer from elsewhere whose capacity falls
// between two classes serves the smaller one.
func (p *Pool) put(m *tensor.Matrix) {
	n := cap(m.Data())
	c := sizeClass(n)
	if classSize(c) > n {
		c--
	}
	if c < 0 {
		return
	}
	for len(p.free) <= c {
		p.free = append(p.free, nil)
	}
	p.free[c] = append(p.free[c], m)
}

// getBytes checks a byte buffer of length n out of the pool, allocating
// one of its size class if none is free. Its contents are unspecified.
func (p *Pool) getBytes(n int) []byte {
	c := sizeClass(n)
	p.mu.Lock()
	if c < len(p.freeBytes) {
		if k := len(p.freeBytes[c]) - 1; k >= 0 {
			b := p.freeBytes[c][k]
			p.freeBytes[c][k] = nil
			p.freeBytes[c] = p.freeBytes[c][:k]
			p.mu.Unlock()
			return b[:n]
		}
	}
	p.mu.Unlock()
	return make([]byte, n, classSize(c))
}

// putBytes returns b, a buffer from getBytes, to the pool; p.mu must be
// held.
func (p *Pool) putBytes(b []byte) {
	c := sizeClass(cap(b))
	for len(p.freeBytes) <= c {
		p.freeBytes = append(p.freeBytes, nil)
	}
	p.freeBytes[c] = append(p.freeBytes[c], b)
}

// Trim empties the pool's free-lists, handing every free buffer to the
// garbage collector. Buffers checked out stay with their holders and come
// back as usual; the next Get of a class allocates afresh.
func (p *Pool) Trim() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free, p.freeBytes = nil, nil
}

// Bytes returns the capacity, in bytes, of the buffers free in the pool,
// byte buffers included.
func (p *Pool) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, free := range p.free {
		n += capBytes(free)
	}
	for _, free := range p.freeBytes {
		for _, b := range free {
			n += int64(cap(b))
		}
	}
	return n
}

// capBytes sums the capacity of ms' buffers, in bytes, skipping nils.
func capBytes(ms []*tensor.Matrix) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += 8 * int64(cap(m.Data()))
		}
	}
	return n
}

// sizeClass returns the index of the smallest size class holding n
// entries: class 2k−1 holds 2^k, class 2k−2 holds 3·2^(k−2) (k ≥ 2), and
// class 0 holds 1.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	k := bits.Len(uint(n - 1)) // 2^(k−1) < n ≤ 2^k
	if k >= 2 && n <= 3<<(k-2) {
		return 2*k - 2
	}
	return 2*k - 1
}

// classSize returns the number of entries size class c holds.
func classSize(c int) int {
	switch {
	case c == 0:
		return 1
	case c%2 == 1:
		return 1 << ((c + 1) / 2)
	default:
		return 3 << (c/2 - 1)
	}
}

// at returns the node at tape index i.
func (t *Tape) at(i int) *Value {
	c, off := chunkOf(i)
	return &t.chunks[c][off]
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
	*v = Value{tape: t, ti: t.used, parents: parents, buf: -1}
	t.used++
	return v
}

// node records an op result whose requiresGrad is inherited from parents.
// data must be a buffer of the tape's (scratch or Matrix): the node owns it.
// The op and parent list are only retained when some parent needs a
// gradient.
func (t *Tape) node(data *tensor.Matrix, o *op, parents ...*Value) *Value {
	return t.nodeOf(data, o, parents)
}

// nodeOf is node for a parent list held in several slices: the node's
// parents are the groups concatenated in order.
func (t *Tape) nodeOf(data *tensor.Matrix, o *op, groups ...[]*Value) *Value {
	out := t.newValue()
	out.Data = data
	out.buf = t.bufIndex(data)
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
		out.op = o
	}
	return out
}

// Var records a trainable leaf on the tape. The matrix is caller-owned (not
// recycled); the leaf's gradient buffer comes from the tape.
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
// buffer goes back on the tape's free-list — except the root's, which the
// caller seeded and may still read.
func (t *Tape) sweep(from int) {
	ci, off := chunkOf(from)
	root := true
	for ; ci >= 0; ci-- {
		chunk := t.chunks[ci][:off+1]
		for j := len(chunk) - 1; j >= 0; j-- {
			if v := &chunk[j]; v.Grad != nil && v.op != nil {
				v.op.back(v)
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
