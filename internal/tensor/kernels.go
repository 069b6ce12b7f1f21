package tensor

import "math"

// Register-blocking parameters.
const (
	mmColBlock = 8   // output columns per register-blocked pass
	mmKBlock   = 256 // rows of a TN's a read per chunk, so a chunk stays in cache
	// mmSmallB is the largest bᵀ (in float64s) the NT vector path packs into
	// its stack panel: half of a 32 KB L1. The model's 16-wide layers sit far
	// below it; a bigger bᵀ takes the Go loops.
	mmSmallB = 2048
)

// Modes of the vector 8-column block kernel (gemm8): where each row's
// accumulators start and what happens to them at the end of the sum.
const (
	gemmStore    = iota // start at +0, store into out
	gemmContinue        // start at out's values, store into out
	gemmAdd             // start at +0, add into out
)

// matMulRowsBlocked OVERWRITES rows [lo, hi) of out with a·b: it ignores
// out's prior contents, so MatMulInto needs no dst.Zero() pass (and the
// kernel no read-back of those zeros). The result is bit-identical on finite
// inputs to the scalar ikj loop kept as the oracle in kernels_test.go
// (matMulRows, which accumulates into a zeroed out): each out entry sums k in
// ascending order from a +0 accumulator, and the av == 0 skips only ever
// omit ±0-valued terms, which cannot change an accumulator that is never −0.
//
// Blocking scheme: for each 8-wide column block of b, stream every a-row
// against b's rows in their natural layout with 8 independent accumulator
// chains, one full-K sweep per column block — the chains give the compiler
// ILP that the scalar ikj loop's single dependent chain cannot.
func matMulRowsBlocked(a, b, out *Matrix, lo, hi int) {
	n := b.cols
	kk := a.cols
	if n == 0 {
		return
	}
	if kk == 0 {
		// Empty reduction: the product of the written rows is all zeros.
		for i := lo; i < hi; i++ {
			row := out.data[i*n : i*n+n]
			for x := range row {
				row[x] = 0
			}
		}
		return
	}
	for jb := 0; jb < n; jb += mmColBlock {
		jw := n - jb
		if jw >= mmColBlock {
			jw = mmColBlock
		}
		if jw == mmColBlock && useAVX2 && hi > lo {
			gemm8(out.data[lo*n+jb:], n, a.data[lo*kk:], kk, 1, b.data[jb:], n, hi-lo, kk, gemmStore)
		} else if jw == mmColBlock {
			for i := lo; i < hi; i++ {
				arow := a.data[i*kk : i*kk+kk : i*kk+kk]
				var c0, c1, c2, c3, c4, c5, c6, c7 float64
				for k, av := range arow {
					if av == 0 {
						continue
					}
					p := b.data[k*n+jb : k*n+jb+mmColBlock : k*n+jb+mmColBlock]
					c0 += av * p[0]
					c1 += av * p[1]
					c2 += av * p[2]
					c3 += av * p[3]
					c4 += av * p[4]
					c5 += av * p[5]
					c6 += av * p[6]
					c7 += av * p[7]
				}
				od := i*n + jb
				orow := out.data[od : od+mmColBlock : od+mmColBlock]
				orow[0], orow[1], orow[2], orow[3] = c0, c1, c2, c3
				orow[4], orow[5], orow[6], orow[7] = c4, c5, c6, c7
			}
		} else {
			for i := lo; i < hi; i++ {
				arow := a.data[i*kk : i*kk+kk : i*kk+kk]
				var acc [mmColBlock]float64
				for k, av := range arow {
					if av == 0 {
						continue
					}
					p := b.data[k*n+jb : k*n+jb+jw : k*n+jb+jw]
					for x, pv := range p {
						acc[x] += av * pv
					}
				}
				od := i*n + jb
				copy(out.data[od:od+jw], acc[:jw])
			}
		}
	}
}

// matMulNTRowsBlocked accumulates rows [lo, hi) of dst += a·bᵀ. Four rows of
// b are dotted against each a-row concurrently — four independent
// accumulator chains, each summing j in ascending order exactly like the
// one-at-a-time dot products of its test oracle (matMulNTRows).
func matMulNTRowsBlocked(a, b, dst *Matrix, lo, hi int) {
	w := a.cols
	kn := b.rows
	k0 := 0 // dst columns the vector kernel has summed
	if useAVX2 && hi > lo && w > 0 && kn >= mmColBlock && w*kn <= mmSmallB {
		k0 = matMulNTVec(a, b, dst, lo, hi)
	}
	for i := lo; i < hi; i++ {
		arow := a.data[i*w : i*w+w : i*w+w]
		drow := dst.data[i*kn : i*kn+kn : i*kn+kn]
		k := k0
		for ; k+4 <= kn; k += 4 {
			b0 := b.data[k*w : k*w+w : k*w+w]
			b1 := b.data[(k+1)*w : (k+1)*w+w : (k+1)*w+w]
			b2 := b.data[(k+2)*w : (k+2)*w+w : (k+2)*w+w]
			b3 := b.data[(k+3)*w : (k+3)*w+w : (k+3)*w+w]
			var s0, s1, s2, s3 float64
			for j, av := range arow {
				s0 += av * b0[j]
				s1 += av * b1[j]
				s2 += av * b2[j]
				s3 += av * b3[j]
			}
			drow[k] += s0
			drow[k+1] += s1
			drow[k+2] += s2
			drow[k+3] += s3
		}
		for ; k < kn; k++ {
			brow := b.data[k*w : k*w+w : k*w+w]
			s := 0.0
			for j, av := range arow {
				s += av * brow[j]
			}
			drow[k] += s
		}
	}
}

// matMulNTVec is the vector path of matMulNTRowsBlocked for a bᵀ of at most
// mmSmallB entries: it packs each 8-row block of b transposed into a
// w×8 panel on the stack, then runs the forward block kernel over it, so
// every dst entry gets the sum over j ascending from +0, added once — the
// scalar dot product's order. It returns the dst columns it covered, the
// full 8-column blocks.
func matMulNTVec(a, b, dst *Matrix, lo, hi int) int {
	w := a.cols
	kn := b.rows
	var bt [mmSmallB]float64
	full := kn &^ (mmColBlock - 1)
	for kb := 0; kb < full; kb += mmColBlock {
		pan := bt[kb*w : kb*w+w*mmColBlock]
		for c := 0; c < mmColBlock; c++ {
			for j, v := range b.data[(kb+c)*w : (kb+c)*w+w] {
				pan[j*mmColBlock+c] = v
			}
		}
		gemm8(dst.data[lo*kn+kb:], kn, a.data[lo*w:], w, 1, pan, mmColBlock, hi-lo, w, gemmAdd)
	}
	return full
}

// matMulTNRowsBlocked accumulates dst rows [lo, hi) of dst += aᵀ·b. The
// outer loop stays over m (every dst entry must sum i in ascending order);
// four dst rows are updated per pass so each loaded b-row is reused four
// times from registers. The per-element av == 0 test of its test oracle
// (matMulTNRows) — a data-dependent branch in the second-innermost loop — is
// hoisted to one all-four-nonzero test per block; a block with a zero takes
// per-row tests, so the Go loops add exactly the oracle's terms.
func matMulTNRowsBlocked(a, b, dst *Matrix, lo, hi int) {
	n := b.cols
	kk := a.cols
	// Vector path: dst rows [lo, hi) in 4-row × 8-column register blocks,
	// each entry summing i ascending on top of its dst value, with a read in
	// mmKBlock-row chunks so a chunk stays in cache across the column
	// blocks. It adds the ±0 terms the Go loops skip, which on finite inputs
	// changes no bit unless dst holds a −0 (−0 + +0 = +0): such a dst takes
	// the Go loops.
	j0 := 0 // leading dst columns the vector kernel has updated
	if useAVX2 && n >= mmColBlock && hi > lo && a.rows > 0 && !hasNegZero(dst.data[lo*n:hi*n]) {
		j0 = n &^ (mmColBlock - 1)
		for ib := 0; ib < a.rows; ib += mmKBlock {
			iw := min(a.rows-ib, mmKBlock)
			for jb := 0; jb < j0; jb += mmColBlock {
				gemm8(dst.data[lo*n+jb:], n, a.data[ib*kk+lo:], 1, kk, b.data[ib*n+jb:], n, hi-lo, iw, gemmContinue)
			}
		}
		if j0 == n {
			return
		}
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*kk : i*kk+kk : i*kk+kk]
		brow := b.data[i*n+j0 : i*n+n : i*n+n]
		k := lo
		for ; k+4 <= hi; k += 4 {
			av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				// Dense block: one pass over the b-row feeds four
				// independent rank-1 update chains.
				d0 := dst.data[k*n+j0 : k*n+n : k*n+n]
				d1 := dst.data[(k+1)*n+j0 : (k+1)*n+n : (k+1)*n+n]
				d2 := dst.data[(k+2)*n+j0 : (k+2)*n+n : (k+2)*n+n]
				d3 := dst.data[(k+3)*n+j0 : (k+3)*n+n : (k+3)*n+n]
				for j, bv := range brow {
					d0[j] += av0 * bv
					d1[j] += av1 * bv
					d2[j] += av2 * bv
					d3[j] += av3 * bv
				}
				continue
			}
			// Sparse block: a is typically a ReLU activation matrix here
			// (22 % zeros on GCN, 37 % on GAT), so pay one branch per row
			// and run a plain axpy for each nonzero — the skipped ±0
			// updates cannot change the accumulators.
			for kq := k; kq < k+4; kq++ {
				av := arow[kq]
				if av == 0 {
					continue
				}
				drow := dst.data[kq*n+j0 : kq*n+n : kq*n+n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
		for ; k < hi; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			drow := dst.data[k*n+j0 : k*n+n : k*n+n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// hasNegZero reports whether x holds a −0.
func hasNegZero(x []float64) bool {
	for _, v := range x {
		if math.Float64bits(v) == 1<<63 {
			return true
		}
	}
	return false
}
