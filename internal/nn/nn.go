// Package nn builds neural-network layers on top of the autodiff engine:
// linear layers, GCN and GAT graph convolutions, two-layer GNN backbones,
// and the Adam optimizer. It corresponds to the model zoo the paper uses
// (GCN [15] and GAT [16] backbones, l = 2 layers, ReLU + dropout, linear
// classification heads) but is written as a general, reusable library.
//
// Layer forwards are tape-transparent: the autodiff.Tape is carried by the
// input Value (see GNN.Forward), while parameters remain long-lived leaves
// on no tape whose gradient buffers are recycled in place across
// ZeroGrad/backward cycles.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// Param is a named trainable parameter.
type Param struct {
	Name string
	V    *autodiff.Value
}

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrad clears gradients on all parameters of a module.
func ZeroGrad(m Module) {
	for _, p := range m.Params() {
		p.V.ZeroGrad()
	}
}

// CountParams returns the total number of scalar parameters.
func CountParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.V.Data.Size()
	}
	return n
}

// ShareParam returns a view of p whose Value shares p's underlying matrix
// but owns an independent gradient buffer. Forward passes through the view
// read the live weights; backward passes accumulate into the view's Grad
// without touching p's. This is the building block of the device-parallel
// trainer: each worker differentiates through its own view and the shard
// gradients are reduced deterministically afterwards.
func ShareParam(p *Param) *Param {
	return &Param{Name: p.Name, V: autodiff.Var(p.V.Data)}
}

// Snapshot deep-copies all parameter matrices (for validation-based model
// selection or rollback). Because shared views created with ShareParam (or
// the CloneShared methods) alias the same matrices, Restore-ing a snapshot
// is immediately visible to every view; neither call may overlap a
// concurrent forward or backward pass through those views.
func Snapshot(m Module) []*tensor.Matrix {
	params := m.Params()
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.V.Data.Clone()
	}
	return out
}

// Restore copies a Snapshot back into the module's parameters.
func Restore(m Module, snap []*tensor.Matrix) {
	params := m.Params()
	if len(snap) != len(params) {
		panic(fmt.Sprintf("nn: snapshot has %d tensors for %d params", len(snap), len(params)))
	}
	for i, p := range params {
		p.V.Data.CopyFrom(snap[i])
	}
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear returns a Glorot-initialized linear layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   &Param{Name: name + ".W", V: autodiff.Var(tensor.Glorot(in, out, rng))},
		B:   &Param{Name: name + ".B", V: autodiff.Var(tensor.New(1, out))},
	}
}

// Forward applies the layer.
func (l *Linear) Forward(x *autodiff.Value) *autodiff.Value {
	return autodiff.AddRow(autodiff.MatMul(x, l.W.V), l.B.V)
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ---------------------------------------------------------------------------
// ConvGraph: the message-passing structure consumed by GCN/GAT layers
// ---------------------------------------------------------------------------

// ConvGraph is a preprocessed directed edge list (with self-loops) over N
// nodes, ready for message passing. Norm carries the symmetric GCN
// normalization 1/√(deg(u)·deg(v)) per edge (degrees counted with
// self-loops); GAT ignores it.
type ConvGraph struct {
	N        int
	Src, Dst []int
	Norm     []float64

	// csr caches the destination-grouped view of the edge list for the
	// fused aggregation kernels, built on first use (see CSR).
	csr     *tensor.CSR
	csrOnce sync.Once
}

// CSR returns the destination-grouped (stable edge order) view of the
// graph, building and caching it on first use. Safe for concurrent callers;
// the returned CSR is immutable.
func (g *ConvGraph) CSR() *tensor.CSR {
	g.csrOnce.Do(func() {
		g.csr = tensor.NewCSR(g.N, g.Src, g.Dst)
	})
	return g.csr
}

// NewConvGraph builds a ConvGraph from an undirected edge list over n nodes.
// Each undirected edge {u,v} contributes both directions; every node gets a
// self-loop. Duplicate edges are kept (callers should deduplicate first if
// that matters).
func NewConvGraph(n int, edges [][2]int) *ConvGraph {
	deg := make([]float64, n)
	for i := range deg {
		deg[i] = 1 // self-loop
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("nn: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		deg[u]++
		deg[v]++
	}
	m := 2*len(edges) + n
	g := &ConvGraph{
		N:    n,
		Src:  make([]int, 0, m),
		Dst:  make([]int, 0, m),
		Norm: make([]float64, 0, m),
	}
	add := func(u, v int) {
		g.Src = append(g.Src, u)
		g.Dst = append(g.Dst, v)
		g.Norm = append(g.Norm, 1/sqrtProd(deg[u], deg[v]))
	}
	for _, e := range edges {
		add(e[0], e[1])
		add(e[1], e[0])
	}
	for i := 0; i < n; i++ {
		add(i, i)
	}
	return g
}

func sqrtProd(a, b float64) float64 {
	p := a * b
	if p <= 0 {
		return 1
	}
	return math.Sqrt(p)
}

// ---------------------------------------------------------------------------
// GCNConv
// ---------------------------------------------------------------------------

// GCNConv is the graph convolution of Kipf & Welling:
// H' = D̂^{-1/2}(A+I)D̂^{-1/2} · H · W + b.
type GCNConv struct {
	In, Out int
	W, B    *Param
}

// NewGCNConv returns a Glorot-initialized GCN layer.
func NewGCNConv(name string, in, out int, rng *rand.Rand) *GCNConv {
	return &GCNConv{
		In:  in,
		Out: out,
		W:   &Param{Name: name + ".W", V: autodiff.Var(tensor.Glorot(in, out, rng))},
		B:   &Param{Name: name + ".B", V: autodiff.Var(tensor.New(1, out))},
	}
}

// Forward aggregates normalized neighbor messages over g as one fused CSR
// op (no per-edge message matrix) and adds the bias.
func (l *GCNConv) Forward(g *ConvGraph, x *autodiff.Value) *autodiff.Value {
	return autodiff.AddRow(l.preBias(g, x), l.B.V)
}

// preBias is Forward without the bias.
func (l *GCNConv) preBias(g *ConvGraph, x *autodiff.Value) *autodiff.Value {
	return autodiff.CSRAggregate(autodiff.MatMul(x, l.W.V), g.CSR(), g.Norm)
}

func (l *GCNConv) bias() *autodiff.Value { return l.B.V }

// Params implements Module.
func (l *GCNConv) Params() []*Param { return []*Param{l.W, l.B} }

// CloneShared returns a view of the layer whose parameters share l's
// matrices but own independent gradient buffers (see ShareParam).
func (l *GCNConv) CloneShared() *GCNConv {
	return &GCNConv{In: l.In, Out: l.Out, W: ShareParam(l.W), B: ShareParam(l.B)}
}

// ---------------------------------------------------------------------------
// GATConv
// ---------------------------------------------------------------------------

// GATConv is the graph attention layer of Veličković et al. with multi-head
// attention. Heads are concatenated when Concat is true (hidden layers) and
// averaged otherwise (output layers). OutDim is the per-head output size.
type GATConv struct {
	In, OutPerHead, Heads int
	Concat                bool
	NegativeSlope         float64

	W  []*Param // per head: In×OutPerHead
	AL []*Param // per head: OutPerHead×1 ("left"/source attention vector)
	AR []*Param // per head: OutPerHead×1 ("right"/destination attention vector)
	B  *Param   // bias over the final (concatenated or averaged) output
}

// NewGATConv returns a Glorot-initialized multi-head GAT layer.
func NewGATConv(name string, in, outPerHead, heads int, concat bool, rng *rand.Rand) *GATConv {
	if heads < 1 {
		panic("nn: GATConv needs at least one head")
	}
	l := &GATConv{
		In: in, OutPerHead: outPerHead, Heads: heads,
		Concat:        concat,
		NegativeSlope: 0.2,
	}
	for h := 0; h < heads; h++ {
		l.W = append(l.W, &Param{Name: fmt.Sprintf("%s.W%d", name, h), V: autodiff.Var(tensor.Glorot(in, outPerHead, rng))})
		l.AL = append(l.AL, &Param{Name: fmt.Sprintf("%s.aL%d", name, h), V: autodiff.Var(tensor.Glorot(outPerHead, 1, rng))})
		l.AR = append(l.AR, &Param{Name: fmt.Sprintf("%s.aR%d", name, h), V: autodiff.Var(tensor.Glorot(outPerHead, 1, rng))})
	}
	bias := outPerHead
	if concat {
		bias = outPerHead * heads
	}
	l.B = &Param{Name: name + ".B", V: autodiff.Var(tensor.New(1, bias))}
	return l
}

// OutDim returns the layer's actual output width.
func (l *GATConv) OutDim() int {
	if l.Concat {
		return l.OutPerHead * l.Heads
	}
	return l.OutPerHead
}

// Forward computes attention-weighted aggregation over g. Each head's
// projection x·W[h] is its own MatMul (so a first layer over a
// Tape.ConstSparse input multiplies through its sparse view); the
// attention itself — every head's scores, LeakyReLU, edge softmax,
// α-weighted aggregation and the concat or mean — is one
// autodiff.GATAttention, which keeps the arithmetic order of the per-head
// chain of library ops it replaced (see its doc), and the bias is added
// last.
func (l *GATConv) Forward(g *ConvGraph, x *autodiff.Value) *autodiff.Value {
	return autodiff.AddRow(l.preBias(g, x), l.B.V)
}

// preBias is Forward without the bias.
func (l *GATConv) preBias(g *ConvGraph, x *autodiff.Value) *autodiff.Value {
	// Up to four heads (the paper's count) fit in arrays on the stack, so a
	// forward allocates nothing; more spill to the heap.
	var whs, als, ars [4]*autodiff.Value
	wh, aL, aR := whs[:0], als[:0], ars[:0]
	for h := 0; h < l.Heads; h++ {
		wh = append(wh, autodiff.MatMul(x, l.W[h].V))
		aL = append(aL, l.AL[h].V)
		aR = append(aR, l.AR[h].V)
	}
	return autodiff.GATAttention(wh, aL, aR, g.CSR(), l.NegativeSlope, l.Concat)
}

func (l *GATConv) bias() *autodiff.Value { return l.B.V }

// Params implements Module.
func (l *GATConv) Params() []*Param {
	ps := make([]*Param, 0, 3*l.Heads+1)
	for h := 0; h < l.Heads; h++ {
		ps = append(ps, l.W[h], l.AL[h], l.AR[h])
	}
	return append(ps, l.B)
}

// CloneShared returns a view of the layer whose parameters share l's
// matrices but own independent gradient buffers (see ShareParam).
func (l *GATConv) CloneShared() *GATConv {
	c := &GATConv{
		In: l.In, OutPerHead: l.OutPerHead, Heads: l.Heads,
		Concat:        l.Concat,
		NegativeSlope: l.NegativeSlope,
		B:             ShareParam(l.B),
	}
	for h := 0; h < l.Heads; h++ {
		c.W = append(c.W, ShareParam(l.W[h]))
		c.AL = append(c.AL, ShareParam(l.AL[h]))
		c.AR = append(c.AR, ShareParam(l.AR[h]))
	}
	return c
}
