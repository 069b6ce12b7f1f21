package tensor

import "fmt"

// CSR is a compressed, destination-grouped view of an edge list: the slots
// of each segment (destination row) are stored contiguously, in the original
// edge order — exactly the order ScatterAddRows applies per-edge
// contributions when it reduces an edge-major message matrix. That ordering
// is what makes the fused aggregation kernels below bit-identical to the
// unfused gather→scale→scatter-add chains they are tested against.
//
// A CSR is immutable after NewCSR and safe for concurrent readers.
type CSR struct {
	// NSeg is the number of output rows (segments).
	NSeg int
	// Segs lists the non-empty segment ids in ascending order; empty
	// segments take no space and no time in the forward kernel.
	Segs []int
	// Starts has len(Segs)+1 entries: the slots of Segs[s] are
	// [Starts[s], Starts[s+1]) in Srcs/Edges.
	Starts []int
	// Srcs holds the source row of each grouped slot; Edges holds the
	// slot's index in the original edge arrays (for per-edge coefficients).
	Srcs  []int
	Edges []int
	// Src and Dst alias the original edge arrays; the backward kernel walks
	// them in original edge order.
	Src, Dst []int
}

// NewCSR groups the edge list (src[e] → dst[e]) by destination into nseg
// segments. Slot order within each segment preserves ascending original
// edge order (a stable counting sort).
func NewCSR(nseg int, src, dst []int) *CSR {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: NewCSR src %d vs dst %d", len(src), len(dst)))
	}
	count := make([]int, nseg)
	for e, d := range dst {
		if d < 0 || d >= nseg {
			panic(fmt.Sprintf("tensor: NewCSR dst[%d]=%d out of range [0,%d)", e, d, nseg))
		}
		count[d]++
	}
	// next[s] starts at the first slot of segment s and advances as the
	// stable fill below places s's edges.
	next := make([]int, nseg)
	sum, nonEmpty := 0, 0
	for s, c := range count {
		next[s] = sum
		sum += c
		if c > 0 {
			nonEmpty++
		}
	}
	srcs := make([]int, len(src))
	edges := make([]int, len(src))
	for e, d := range dst {
		p := next[d]
		next[d]++
		srcs[p] = src[e]
		edges[p] = e
	}
	segs := make([]int, 0, nonEmpty)
	starts := make([]int, 1, nonEmpty+1)
	for s, c := range count {
		if c > 0 {
			segs = append(segs, s)
			starts = append(starts, starts[len(starts)-1]+c)
		}
	}
	return &CSR{NSeg: nseg, Segs: segs, Starts: starts, Srcs: srcs, Edges: edges, Src: src, Dst: dst}
}

// NumEdges returns the number of edges the CSR was built from.
func (c *CSR) NumEdges() int { return len(c.Srcs) }

// CSRAggregateInto OVERWRITES dst with the segment aggregation
//
//	dst.Row(s) = Σ_slots p of s  coef[csr.Edges[p]] · a.Row(csr.Srcs[p])
//
// (rows of empty segments become zero). coef holds one coefficient per edge.
// dst must be csr.NSeg×a.cols; its prior contents are ignored, which lets
// callers hand it a recycled tape buffer without paying a zeroing pass.
//
// Bit-identity with the unfused chain: slots appear in original edge order
// within each segment, so each row sums its per-edge contributions in
// exactly the order ScatterAddRows applies them to a zeroed output. The
// first slot of a segment stores its term through one `+ 0` — the same
// +0-accumulator add the unfused chain performs — so a −0-valued first term
// canonicalizes to +0 identically.
func CSRAggregateInto(dst, a *Matrix, csr *CSR, coef []float64) {
	if dst.rows != csr.NSeg || dst.cols != a.cols {
		panic(fmt.Sprintf("tensor: CSRAggregateInto dst %dx%d for %d segments of %dx%d",
			dst.rows, dst.cols, csr.NSeg, a.rows, a.cols))
	}
	if len(coef) != len(csr.Srcs) {
		panic(fmt.Sprintf("tensor: CSRAggregateInto coef %d for %d edges", len(coef), len(csr.Srcs)))
	}
	c := a.cols
	prev := 0
	for si, s := range csr.Segs {
		zeroRows(dst, prev, s, c)
		prev = s + 1
		drow := dst.data[s*c : s*c+c : s*c+c]
		lo, hi := csr.Starts[si], csr.Starts[si+1]
		arow := a.data[csr.Srcs[lo]*c : csr.Srcs[lo]*c+c : csr.Srcs[lo]*c+c]
		w := coef[csr.Edges[lo]]
		for j, av := range arow {
			drow[j] = w*av + 0
		}
		for p := lo + 1; p < hi; p++ {
			arow := a.data[csr.Srcs[p]*c : csr.Srcs[p]*c+c : csr.Srcs[p]*c+c]
			w := coef[csr.Edges[p]]
			for j, av := range arow {
				drow[j] += w * av
			}
		}
	}
	zeroRows(dst, prev, csr.NSeg, c)
}

// zeroRows clears rows [lo, hi) of a matrix with c columns.
func zeroRows(m *Matrix, lo, hi, c int) {
	if lo >= hi {
		return
	}
	row := m.data[lo*c : hi*c]
	for j := range row {
		row[j] = 0
	}
}

// CSRAggregateBackward accumulates the input gradient of a CSR aggregation,
//
//	aGrad.Row(src[e]) += coef[e] · outGrad.Row(dst[e]),
//
// walking edges in ascending original order — the order the unfused chain's
// ScatterAddRows runs in, so the gradient is bit-identical to the unfused
// one. coef holds one coefficient per edge.
func CSRAggregateBackward(aGrad, outGrad *Matrix, src, dst []int, coef []float64) {
	c := outGrad.cols
	if aGrad.cols != c {
		panic(fmt.Sprintf("tensor: CSRAggregateBackward aGrad %dx%d for outGrad cols %d",
			aGrad.rows, aGrad.cols, c))
	}
	if len(coef) != len(src) {
		panic(fmt.Sprintf("tensor: CSRAggregateBackward coef %d for %d edges", len(coef), len(src)))
	}
	for e, se := range src {
		grow := outGrad.data[dst[e]*c : dst[e]*c+c : dst[e]*c+c]
		garow := aGrad.data[se*c : se*c+c : se*c+c]
		w := coef[e]
		for j, gv := range grow {
			garow[j] += w * gv
		}
	}
}
