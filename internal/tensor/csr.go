package tensor

import (
	"fmt"
	"math"
)

// segWidth is the one row width the segment kernels (the CSR aggregation,
// its by-source backward and both ConstSparse products) run vector code
// at: every model layer's. Other widths run the Go loops.
const segWidth = 16

// CSR is a compressed, destination-grouped view of an edge list: the slots
// of each segment (destination row) are stored contiguously, in the original
// edge order — exactly the order ScatterAddRows applies per-edge
// contributions when it reduces an edge-major message matrix. That ordering
// is what makes the fused aggregation kernels below bit-identical to the
// unfused gather→scale→scatter-add chains they are tested against.
//
// Beside the grouping by destination, a CSR holds a by-source index: the
// edge ids out of each source row, ascending, and their destinations. The
// backward kernel walks it, so each source row's gradient receives its
// terms in ascending edge order, the order the unfused chain's scatter adds
// them in, with one gather-accumulate per source row. Slot and index arrays
// are int32 and owned by the CSR; the vector kernels read only those, never
// the caller's Src and Dst.
//
// A CSR is immutable after NewCSR and safe for concurrent readers.
type CSR struct {
	// NSeg is the number of output rows (segments).
	NSeg int
	// Segs lists the non-empty segment ids in ascending order; empty
	// segments take no space and no time in the forward kernel.
	Segs []int
	// Starts has len(Segs)+1 entries: the slots of Segs[s] are
	// [Starts[s], Starts[s+1]) (see Slots).
	Starts []int
	// Src and Dst alias the original edge arrays.
	Src, Dst []int

	// edges holds each grouped slot's index in the original edge arrays
	// (for per-edge coefficients), srcs its source row.
	edges, srcs []int32
	// nsrc is one more than the largest source row (0 without edges). The
	// edges out of source r are srcEdges[srcStarts[r]:srcStarts[r+1]],
	// ascending, and srcDsts holds each one's destination.
	nsrc              int
	srcStarts         []int32
	srcEdges, srcDsts []int32
}

// NewCSR groups the edge list (src[e] → dst[e]) by destination into nseg
// segments. Slot order within each segment preserves ascending original
// edge order (a stable counting sort); the by-source index is a second
// stable counting sort, by source. Sources must be non-negative, and the
// edge count and every row must fit an int32.
func NewCSR(nseg int, src, dst []int) *CSR {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: NewCSR src %d vs dst %d", len(src), len(dst)))
	}
	if len(src) > math.MaxInt32 || nseg > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: NewCSR %d edges into %d segments", len(src), nseg))
	}
	count := make([]int, nseg)
	for e, d := range dst {
		if d < 0 || d >= nseg {
			panic(fmt.Sprintf("tensor: NewCSR dst[%d]=%d out of range [0,%d)", e, d, nseg))
		}
		count[d]++
	}
	nsrc := 0
	for e, s := range src {
		if s < 0 || s >= math.MaxInt32 {
			panic(fmt.Sprintf("tensor: NewCSR src[%d]=%d out of range [0,%d)", e, s, math.MaxInt32))
		}
		nsrc = max(nsrc, s+1)
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
	srcs := make([]int32, len(src))
	edges := make([]int32, len(src))
	for e, d := range dst {
		p := next[d]
		next[d]++
		srcs[p] = int32(src[e])
		edges[p] = int32(e)
	}
	segs := make([]int, 0, nonEmpty)
	starts := make([]int, 1, nonEmpty+1)
	for s, c := range count {
		if c > 0 {
			segs = append(segs, s)
			starts = append(starts, starts[len(starts)-1]+c)
		}
	}

	srcStarts := make([]int32, nsrc+1)
	for _, s := range src {
		srcStarts[s+1]++
	}
	for r := range nsrc {
		srcStarts[r+1] += srcStarts[r]
	}
	srcEdges := make([]int32, len(src))
	srcDsts := make([]int32, len(src))
	fill := make([]int32, nsrc)
	copy(fill, srcStarts)
	for e, s := range src {
		p := fill[s]
		fill[s]++
		srcEdges[p] = int32(e)
		srcDsts[p] = int32(dst[e])
	}
	return &CSR{
		NSeg: nseg, Segs: segs, Starts: starts, Src: src, Dst: dst,
		edges: edges, srcs: srcs,
		nsrc: nsrc, srcStarts: srcStarts, srcEdges: srcEdges, srcDsts: srcDsts,
	}
}

// NumEdges returns the number of edges the CSR was built from.
func (c *CSR) NumEdges() int { return len(c.edges) }

// Slots returns the original edge ids and the source rows of segment
// Segs[si]'s slots, in slot order (ascending edge id). The slices are the
// CSR's own: read them, never write them.
func (c *CSR) Slots(si int) (edges, srcs []int32) {
	lo, hi := c.Starts[si], c.Starts[si+1]
	return c.edges[lo:hi:hi], c.srcs[lo:hi:hi]
}

// CSRAggregateInto OVERWRITES dst with the segment aggregation
//
//	dst.Row(s) = Σ_slots p of s  coef[edge p] · a.Row(source of p)
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
	if dst.rows != csr.NSeg || dst.cols != a.cols || a.rows < csr.nsrc {
		panic(fmt.Sprintf("tensor: CSRAggregateInto dst %dx%d for %d segments of %dx%d (sources up to row %d)",
			dst.rows, dst.cols, csr.NSeg, a.rows, a.cols, csr.nsrc-1))
	}
	if len(coef) != len(csr.edges) {
		panic(fmt.Sprintf("tensor: CSRAggregateInto coef %d for %d edges", len(coef), len(csr.edges)))
	}
	c := a.cols
	prev := 0
	for si, s := range csr.Segs {
		zeroRows(dst, prev, s, c)
		prev = s + 1
		edges, srcs := csr.Slots(si)
		segmentInto(dst.data[s*c:s*c+c:s*c+c], a.data, edges, srcs, coef)
	}
	zeroRows(dst, prev, csr.NSeg, c)
}

// SegmentInto OVERWRITES row with segment Segs[si]'s aggregation over the
// rows of a (row-major, len(row) columns): Σ_slots coef[edge]·a.Row(source),
// slots in order, the first stored through one `+ 0` (CSRAggregateInto's
// order). At width 16 on AVX2 it is one vector call with the running row in
// registers; every other width runs the Go loops.
func (c *CSR) SegmentInto(row []float64, si int, a []float64, coef []float64) {
	if len(coef) != len(c.edges) || len(a) < c.nsrc*len(row) {
		panic(fmt.Sprintf("tensor: CSR SegmentInto coef %d for %d edges, %d entries of width-%d rows for %d sources",
			len(coef), len(c.edges), len(a), len(row), c.nsrc))
	}
	edges, srcs := c.Slots(si)
	segmentInto(row, a, edges, srcs, coef)
}

// segmentInto is SegmentInto over one segment's non-empty slots, once its
// caller has checked coef and a against the CSR's bounds.
func segmentInto(row, a []float64, edges, srcs []int32, coef []float64) {
	d := len(row)
	if useAVX2 && d == segWidth {
		gatherRows(row, true, a, d, edges, srcs, coef)
		return
	}
	w, src := coef[edges[0]], a[int(srcs[0])*d:int(srcs[0])*d+d]
	src = src[:len(row)]
	for j := range row {
		row[j] = float64(w*src[j]) + 0
	}
	for p, e := range edges[1:] {
		w, src := coef[e], a[int(srcs[p+1])*d:int(srcs[p+1])*d+d]
		src = src[:len(row)]
		for j := range row {
			row[j] += float64(w * src[j])
		}
	}
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
// each source row receiving its edges' terms in ascending original order —
// the order the unfused chain's ScatterAddRows runs in, so the gradient is
// bit-identical to the unfused one. It walks csr's by-source index: one
// gather-accumulate per source row (see AddBySource). coef holds one
// coefficient per edge.
func CSRAggregateBackward(aGrad, outGrad *Matrix, csr *CSR, coef []float64) {
	c := outGrad.cols
	if aGrad.cols != c || outGrad.rows != csr.NSeg {
		panic(fmt.Sprintf("tensor: CSRAggregateBackward aGrad %dx%d for outGrad %dx%d over %d segments",
			aGrad.rows, aGrad.cols, outGrad.rows, c, csr.NSeg))
	}
	if len(coef) != len(csr.edges) {
		panic(fmt.Sprintf("tensor: CSRAggregateBackward coef %d for %d edges", len(coef), len(csr.edges)))
	}
	csr.AddBySource(aGrad.data, c, outGrad.data, c, coef)
}

// AddBySource adds, for every source row r (ag's rows, d wide),
//
//	ag[r·d : r·d+d] += Σ_{edges e out of r, ascending} coef[e] · g[dst[e]·ldg : dst[e]·ldg+d]
//
// term by term onto the row's current values: g is a row-major gradient
// with row stride ldg of which each row's first d columns are read. At
// width 16 on AVX2 each source row is one vector call with the row in
// registers; every other width runs the Go loops over the same index.
func (c *CSR) AddBySource(ag []float64, d int, g []float64, ldg int, coef []float64) {
	if len(coef) != len(c.edges) || len(ag) < c.nsrc*d || d > ldg ||
		(c.NSeg > 0 && len(g) < (c.NSeg-1)*ldg+d) {
		panic(fmt.Sprintf("tensor: CSR AddBySource coef %d for %d edges, ag %d for %d width-%d sources, g %d for %d rows of stride %d",
			len(coef), len(c.edges), len(ag), c.nsrc, d, len(g), c.NSeg, ldg))
	}
	vec := useAVX2 && d == segWidth
	for r := range c.nsrc {
		lo, hi := c.srcStarts[r], c.srcStarts[r+1]
		if lo == hi {
			continue
		}
		arow := ag[r*d : r*d+d : r*d+d]
		edges, dsts := c.srcEdges[lo:hi:hi], c.srcDsts[lo:hi:hi]
		if vec {
			gatherRows(arow, false, g, ldg, edges, dsts, coef)
			continue
		}
		for p, e := range edges {
			grow := g[int(dsts[p])*ldg : int(dsts[p])*ldg+d]
			grow = grow[:len(arow)]
			w := coef[e]
			for j, gv := range grow {
				arow[j] += float64(w * gv)
			}
		}
	}
}
