package tensor

import (
	"fmt"
	"math"
)

// WeightedSumInto overwrites dst with the weighted sum Σ_j ws[j]·srcs[j] of
// same-shape matrices — the neighbour-averaging kernel of gossip training.
// Every element sums its terms strictly left to right:
//
//	((w0·s0 + w1·s1) + w2·s2) + …            fromZero false
//	(((+0 + w0·s0) + w1·s1) + w2·s2) + …     fromZero true
//
// The second form is the running sum of an accumulator that starts at +0
// (Adam's moments mix that way); it differs from the first only in that a
// −0 first product becomes +0. Both are computed as w0·s0 + z, with z = −0
// (x + −0 == x for every x) or +0.
//
// The kernel fuses sources into passes over dst: the first pass sums up to
// four, every later pass adds the next three, so dst is loaded and stored
// once per group instead of once per source (the AVX2 passes read up to
// eight). Each pass adds its terms to the running value in source order, so
// the result is bit-identical to one pass per source (the loop kept as the
// oracle in mix_test.go). It panics unless
// 1 ≤ len(srcs) == len(ws) and every source has dst's shape; dst may not
// alias a source.
func WeightedSumInto(dst *Matrix, srcs []*Matrix, ws []float64, fromZero bool) {
	if len(srcs) == 0 || len(srcs) != len(ws) {
		panic(fmt.Sprintf("tensor: WeightedSumInto of %d sources with %d weights", len(srcs), len(ws)))
	}
	for _, s := range srcs {
		dst.sameShape(s, "WeightedSumInto")
	}
	z := math.Copysign(0, -1)
	if fromZero {
		z = 0
	}
	d := dst.data
	n := len(d)
	head := min(len(srcs), 4)
	// off is where the Go loops start: the vector kernel, where it runs,
	// sums the leading multiple of 4 elements in the same per-element order.
	off := 0
	if nv := n &^ 3; useAVX2 && nv > 0 {
		mixVec(d, nv, srcs, ws, z)
		off = nv
	}
	d = d[off:]
	n -= off
	a, wa := srcs[0].data[off:off+n], ws[0]
	switch head {
	case 1:
		for k := range d {
			d[k] = float64(wa*a[k]) + z
		}
	case 2:
		b, wb := srcs[1].data[off:off+n], ws[1]
		for k := range d {
			d[k] = float64(wa*a[k]) + z + wb*b[k]
		}
	case 3:
		b, wb := srcs[1].data[off:off+n], ws[1]
		c, wc := srcs[2].data[off:off+n], ws[2]
		for k := range d {
			d[k] = float64(wa*a[k]) + z + wb*b[k] + wc*c[k]
		}
	case 4:
		b, wb := srcs[1].data[off:off+n], ws[1]
		c, wc := srcs[2].data[off:off+n], ws[2]
		e, we := srcs[3].data[off:off+n], ws[3]
		for k := range d {
			d[k] = float64(wa*a[k]) + z + wb*b[k] + wc*c[k] + we*e[k]
		}
	}
	for j := head; j < len(srcs); j += 3 {
		a, wa := srcs[j].data[off:off+n], ws[j]
		switch min(len(srcs)-j, 3) {
		case 1:
			for k := range d {
				d[k] = d[k] + wa*a[k]
			}
		case 2:
			b, wb := srcs[j+1].data[off:off+n], ws[j+1]
			for k := range d {
				d[k] = d[k] + wa*a[k] + wb*b[k]
			}
		case 3:
			b, wb := srcs[j+1].data[off:off+n], ws[j+1]
			c, wc := srcs[j+2].data[off:off+n], ws[j+2]
			for k := range d {
				d[k] = d[k] + wa*a[k] + wb*b[k] + wc*c[k]
			}
		}
	}
}
