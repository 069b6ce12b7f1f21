package autodiff

import (
	"fmt"
	"math"

	"lumos/internal/tensor"
)

// GATAttention is the attention block of a multi-head graph attention layer
// as one op. Head h reads its projected input wh[h] (rows×d, one row per
// vertex) and its attention vectors aL[h], aR[h] (d×1). Over the edges of
// csr (src → dst, grouped by destination) it computes
//
//	s_l = wh[h]·aL[h],  s_r = wh[h]·aR[h]                 (rows×1 scores)
//	α_e = softmax over the edges into dst[e] of LeakyReLU(s_l[src[e]] + s_r[dst[e]])
//	out_h.Row(s) = Σ_{edges e into s} α_e · wh[h].Row(src[e])
//
// and returns the heads concatenated column-wise (concat) or averaged
// (rows×d). csr must group edges over wh's rows (csr.NSeg == rows); a
// vertex with no incoming edge gets a zero row. csr is retained by
// reference until the tape is reset.
//
// Forward and backward are bit-identical to the per-head chain of library
// ops it replaces — MatMul, Gather, Add, LeakyReLU, SegmentSoftmax and
// CSRAggregateMul per head, then ConcatCols or AddN+Scale — because every
// sum runs in that chain's order:
//   - scores: Σ_k wh[i][k]·a[k] in ascending k from a +0 accumulator,
//     skipping wh[i][k] == 0 (MatMul's kernel);
//   - softmax: per destination the max, then exp(e−max) summed in original
//     edge order, then the divide (csr keeps each segment's edges in that
//     order);
//   - aggregation: a segment's first edge stores α·wh + 0, each later one
//     adds with += (CSRAggregateInto);
//   - mean: ((h0+h1)+h2)+…, then ×(1/H);
//   - backward, heads in descending order (the order the tape swept the
//     chain): wh[h]'s gradient receives the aggregation term in original
//     edge order, then (0 + ds_r·aR[h]ᵀ), then (0 + ds_l·aL[h]ᵀ); aR[h]'s
//     and then aL[h]'s gradient receive Σ_i wh[h][i]·ds[i] in ascending i,
//     skipping wh[h][i] == 0.
//
// TestGATAttentionMatchesPerHeadOracle keeps the chain as the oracle. The
// scratch the backward needs (α and the LeakyReLU inputs of every head)
// lives in one tape buffer, so a warm tape records the op without
// allocating.
func GATAttention(wh, aL, aR []*Value, csr *tensor.CSR, slope float64, concat bool) *Value {
	heads := len(wh)
	if heads == 0 || len(aL) != heads || len(aR) != heads {
		panic(fmt.Sprintf("autodiff: GATAttention %d projections, %d aL, %d aR", heads, len(aL), len(aR)))
	}
	rows, d := wh[0].Data.Dims()
	for h := range wh {
		if r, c := wh[h].Data.Dims(); r != rows || c != d {
			panic(fmt.Sprintf("autodiff: GATAttention head %d projection %dx%d, head 0 %dx%d", h, r, c, rows, d))
		}
		for _, a := range [2]*Value{aL[h], aR[h]} {
			if r, c := a.Data.Dims(); r != d || c != 1 {
				panic(fmt.Sprintf("autodiff: GATAttention head %d attention vector %dx%d for width %d", h, r, c, d))
			}
		}
	}
	if csr.NSeg != rows {
		panic(fmt.Sprintf("autodiff: GATAttention over %d segments for %d rows", csr.NSeg, rows))
	}
	t := tapeOf("GATAttention", wh, aL, aR)
	cols := d
	if concat {
		cols = heads * d
	}
	// Rows of vertices with no incoming edge stay zero.
	data := t.Matrix(rows, cols)
	out := data.Data()
	// Row 2h holds head h's α by edge, row 2h+1 its LeakyReLU inputs — what
	// the backward reads.
	ws := t.scratch(2*heads, csr.NumEdges())
	scores := t.scratch(2, rows)
	sl, sr := scores.Row(0), scores.Row(1)
	var agg []float64 // one head's aggregated row when heads are averaged
	if !concat {
		agg = t.scratch(1, d).Data()
	}
	for h := range wh {
		whd := wh[h].Data.Data()
		al, ar := aL[h].Data.Data(), aR[h].Data.Data()
		for i := range rows {
			row := whd[i*d : i*d+d : i*d+d]
			al, ar := al[:len(row)], ar[:len(row)]
			var l, r float64
			for k, w := range row {
				if w == 0 {
					continue
				}
				l += w * al[k]
				r += w * ar[k]
			}
			sl[i], sr[i] = l, r
		}
		alpha, z := ws.Row(2*h), ws.Row(2*h+1)
		for si, s := range csr.Segs {
			lo, hi := csr.Starts[si], csr.Starts[si+1]
			srcs, edges := csr.Srcs[lo:hi], csr.Edges[lo:hi:hi]
			edges = edges[:len(srcs)]
			mx := math.Inf(-1)
			for p, e := range edges {
				x := sl[srcs[p]] + sr[s]
				z[e] = x
				if !(x > 0) {
					x = slope * x
				}
				alpha[e] = x
				if x > mx {
					mx = x
				}
			}
			sum := 0.0
			for _, e := range edges {
				ex := math.Exp(alpha[e] - mx)
				alpha[e] = ex
				sum += ex
			}
			for _, e := range edges {
				alpha[e] /= sum
			}

			row := agg
			if concat {
				row = out[s*cols+h*d : s*cols+h*d+d : s*cols+h*d+d]
			}
			w, src := alpha[edges[0]], whd[srcs[0]*d:srcs[0]*d+d]
			src = src[:len(row)]
			for j := range row {
				row[j] = w*src[j] + 0
			}
			for p, e := range edges[1:] {
				w, src := alpha[e], whd[srcs[p+1]*d:srcs[p+1]*d+d]
				src = src[:len(row)]
				for j := range row {
					row[j] += w * src[j]
				}
			}
			if !concat {
				orow := out[s*d : s*d+d : s*d+d]
				if h == 0 {
					copy(orow, agg)
				} else {
					agg := agg[:len(orow)]
					for j := range orow {
						orow[j] += agg[j]
					}
				}
			}
		}
	}
	if !concat {
		tensor.ScaleInto(data, data, 1/float64(heads))
	}
	v := t.nodeOf(data, backGATAttention, wh, aL, aR)
	v.s = slope
	v.mat = ws
	v.ints, v.ints2 = csr.Src, csr.Dst
	if concat {
		v.n = 1
	}
	return v
}

// backGATAttention is GATAttention's backward. Parents are the heads'
// projections, then their aL, then their aR; v.n is 1 when the heads were
// concatenated.
func backGATAttention(v *Value) {
	heads := len(v.parents) / 3
	wh, aL, aR := v.parents[:heads], v.parents[heads:2*heads], v.parents[2*heads:]
	src, dst := v.ints, v.ints2
	rows, d := wh[0].Data.Dims()
	t := v.tape

	// The gradient each head's output receives: its column block of v.Grad
	// when concatenated; 0 + Grad/H when averaged (the chain's Scale and
	// AddN backward, onto zeroed buffers).
	g, gcols, goff := v.Grad.Data(), v.Grad.Cols(), d
	if v.n == 0 {
		mean := t.scratch(rows, d).Data()
		s := 1 / float64(heads)
		for i, x := range g {
			mean[i] = s*x + 0
		}
		g, gcols, goff = mean, d, 0
	}
	eg := t.scratch(1, len(src)).Data() // per edge: dL/dα
	dot := t.scratch(1, rows).Data()    // per destination: Σ α·dL/dα
	ds := t.scratch(2, rows)            // dL/ds_l and dL/ds_r
	dsl, dsr := ds.Row(0), ds.Row(1)
	slope := v.s
	for h := heads - 1; h >= 0; h-- {
		alpha, z := v.mat.Row(2*h), v.mat.Row(2*h+1)
		whd := wh[h].Data.Data()
		var whg []float64
		if wh[h].requiresGrad {
			whg = wh[h].EnsureGrad().Data()
		}
		off := h * goff
		clear(dot)
		clear(dsl)
		clear(dsr)
		// Aggregation backward (CSRAggregateBackward's order), with the
		// softmax's per-destination dot folded into the same edge walk.
		for e, se := range src {
			grow := g[dst[e]*gcols+off : dst[e]*gcols+off+d : dst[e]*gcols+off+d]
			arow := whd[se*d : se*d+d]
			arow = arow[:len(grow)]
			w := alpha[e]
			dd := 0.0
			if whg != nil {
				garow := whg[se*d : se*d+d]
				garow = garow[:len(grow)]
				for j, gv := range grow {
					garow[j] += w * gv
					dd += arow[j] * gv
				}
			} else {
				for j, gv := range grow {
					dd += arow[j] * gv
				}
			}
			eg[e] = 0 + dd
			dot[dst[e]] += w * eg[e]
		}
		// Softmax, LeakyReLU and the two score gathers' backward.
		for e, se := range src {
			x := 0 + alpha[e]*(eg[e]-dot[dst[e]])
			if !(z[e] > 0) {
				x = 0 + slope*x
			}
			dsr[dst[e]] += x
			dsl[se] += x
		}
		backScores(whg, whd, d, dsr, dsl, aR[h], aL[h])
	}
}

// backScores is the backward of one head's score products s_r = wh·aR and
// s_l = wh·aL, given their gradients dsr and dsl. The chain ran s_r's
// first: wh's gradient (whg, nil when wh takes none) receives
// (0 + dsr·aRᵀ) and then (0 + dsl·aLᵀ), MatMulNTAddInto's terms, and aR's
// and then aL's gradient receive whᵀ·ds summed over rows in ascending
// order, skipping wh's exact zeros, as MatMulTNAddInto does.
func backScores(whg, whd []float64, d int, dsr, dsl []float64, aR, aL *Value) {
	ar, al := aR.Data.Data(), aL.Data.Data()
	if whg != nil {
		for i, xr := range dsr {
			xl := dsl[i]
			grow := whg[i*d : i*d+d : i*d+d]
			ar, al := ar[:len(grow)], al[:len(grow)]
			for k := range grow {
				grow[k] += 0 + xr*ar[k]
				grow[k] += 0 + xl*al[k]
			}
		}
	}
	for _, p := range [2]struct {
		a  *Value
		ds []float64
	}{{aR, dsr}, {aL, dsl}} {
		if !p.a.requiresGrad {
			continue
		}
		g := p.a.EnsureGrad().Data()
		for i, x := range p.ds {
			row := whd[i*d : i*d+d : i*d+d]
			g := g[:len(row)]
			for k, w := range row {
				if w != 0 {
					g[k] += w * x
				}
			}
		}
	}
}
