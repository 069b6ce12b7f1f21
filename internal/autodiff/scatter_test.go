package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lumos/internal/tensor"
)

// ScatterAddN against the dense combine it replaced in the training engine,
// kept here as the oracle: gather the rows each part contributes, pad them
// to rows×cols (segmentSum, the scatter-onto-zeros op of csr_test.go) and
// sum the padded parts with AddN.

func denseScatterOracle(rows int, parts []*Value, src, dst [][]int) *Value {
	padded := make([]*Value, len(parts))
	for k, p := range parts {
		if src != nil && src[k] != nil {
			p = Gather(p, src[k])
		}
		padded[k] = segmentSum(p, dst[k], rows)
	}
	return AddN(padded...)
}

// scatterCase is one random instance: parts with ascending, distinct row
// lists that all contain row 0 (so one output row is shared by every part),
// part 1 a single row, part 2 a constant.
type scatterCase struct {
	rows int
	data []*tensor.Matrix
	cnst []bool
	idx  [][]int
	w    *tensor.Matrix // weights of the scalar the gradients are taken of
	// src/dst restrict the case to a subset of each part's rows: part 0
	// reads every row (src[0] nil), every other part a random strict subset
	// (possibly empty), each row landing where idx sends it.
	src, dst [][]int
}

func randScatterCase(rng *rand.Rand, nparts int) scatterCase {
	c := scatterCase{rows: 4 + rng.Intn(20)}
	cols := 1 + rng.Intn(5)
	for k := 0; k < nparts; k++ {
		size := 1 + rng.Intn(c.rows-1)
		if k == 1 {
			size = 1
		}
		rowsOf := append([]int{0}, rng.Perm(c.rows - 1)[:size-1]...)
		for i := 1; i < len(rowsOf); i++ {
			rowsOf[i]++
		}
		sort.Ints(rowsOf)
		c.idx = append(c.idx, rowsOf)
		c.data = append(c.data, tensor.Uniform(size, cols, -1, 1, rng))
		c.cnst = append(c.cnst, k == 2)
	}
	c.w = tensor.Uniform(c.rows, cols, -1, 1, rng)
	c.src, c.dst = [][]int{nil}, [][]int{c.idx[0]}
	for k := 1; k < nparts; k++ {
		rowsOf := []int{}
		for i := range c.idx[k] {
			if rng.Intn(2) == 0 {
				rowsOf = append(rowsOf, i)
			}
		}
		if len(rowsOf) == len(c.idx[k]) {
			rowsOf = rowsOf[1:]
		}
		to := make([]int, len(rowsOf))
		for i, r := range rowsOf {
			to[i] = c.idx[k][r]
		}
		c.src, c.dst = append(c.src, rowsOf), append(c.dst, to)
	}
	return c
}

// leaves wraps the case's matrices as fresh leaves on tape tp.
func (c scatterCase) leaves(tp *Tape) []*Value {
	out := make([]*Value, len(c.data))
	for k, m := range c.data {
		if c.cnst[k] {
			out[k] = tp.Const(m)
		} else {
			out[k] = tp.Var(m)
		}
	}
	return out
}

// TestScatterAddNMatchesDenseOracle: forward data and every part's gradient
// equal the dense oracle's bit for bit, over random row partitions (shared
// row, one-row part, constant part, single-part call), reading every part
// row and reading random strict subsets of them (some empty), on a fresh
// tape and on a tape that is reset and re-recorded (so a recycled output
// buffer must come back zeroed).
func TestScatterAddNMatchesDenseOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randScatterCase(rng, 1+int(seed%6))
		src, dst := [][]int(nil), c.idx
		if seed%2 == 1 {
			src, dst = c.src, c.dst
		}
		name := fmt.Sprintf("seed %d (%d parts, source rows %v)", seed, len(c.data), src != nil)

		oracle := NewTape()
		want := c.leaves(oracle)
		wantOut := denseScatterOracle(c.rows, want, src, dst)
		SumAll(MulElem(wantOut, oracle.Const(c.w))).Backward()

		check := func(mode string, tp *Tape, got []*Value, out *Value) {
			t.Helper()
			if out.tape != tp {
				t.Fatalf("%s: op over one tape's leaves did not record on it", name)
			}
			requireBits(t, name+"/"+mode+"/forward", wantOut.Data, out.Data)
			SumAll(MulElem(out, tp.Const(c.w))).Backward()
			for k := range got {
				if c.cnst[k] {
					if got[k].Grad != nil {
						t.Fatalf("%s/%s: constant part %d received a gradient", name, mode, k)
					}
					continue
				}
				requireBits(t, fmt.Sprintf("%s/%s/grad of part %d", name, mode, k), want[k].Grad, got[k].Grad)
			}
		}
		tp := NewTape()
		for pass := 0; pass < 2; pass++ {
			tp.Reset()
			got := c.leaves(tp)
			check(fmt.Sprintf("pass %d", pass), tp, got, ScatterAddN(c.rows, got, src, dst))
		}
	}
}

// TestScatterAddNNegativeZero pins the −0 contract of the op's doc: parts
// accumulate onto +0, so −0.0 entries come out +0.0, in the output and in
// the gathered gradients. (The dense AddN copied its first term, and would
// have kept a −0.0 every part agreed on.)
func TestScatterAddNNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := NewTape().Var(tensor.FromRows([][]float64{{negZero, 1}}))
	out := ScatterAddN(2, []*Value{p}, nil, [][]int{{1}})
	requireBits(t, "forward", tensor.FromRows([][]float64{{0, 0}, {0, 1}}), out.Data)
	out.Grad = tensor.FromRows([][]float64{{7, 7}, {negZero, 2}})
	out.op.back(out)
	requireBits(t, "gradient", tensor.FromRows([][]float64{{0, 2}}), p.Grad)
}

// TestScatterAddNEmptyRowsGetZeroGradient: a part that requires a gradient
// gets one even when its source-row list is empty — all zeros, not nil — so
// whatever it was computed from still sees a (zero) gradient.
func TestScatterAddNEmptyRowsGetZeroGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := NewTape()
	a, b := tp.Var(tensor.Uniform(2, 3, -1, 1, rng)), tp.Var(tensor.Uniform(2, 3, -1, 1, rng))
	out := ScatterAddN(2, []*Value{a, b}, [][]int{{1}, {}}, [][]int{{0}, {}})
	SumAll(out).Backward()
	if b.Grad == nil {
		t.Fatal("part with an empty row list received no gradient")
	}
	requireBits(t, "empty part gradient", tensor.New(2, 3), b.Grad)
	requireBits(t, "subset part gradient", tensor.FromRows([][]float64{{0, 0, 0}, {1, 1, 1}}), a.Grad)
}

// TestScatterAddNTapedSteadyState: on a warm tape the op and its backward
// allocate nothing, however many parts it sums, reading every part row or
// only listed ones.
func TestScatterAddNTapedSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	c := randScatterCase(rand.New(rand.NewSource(1)), 12)
	tp := NewTape()
	parts := make([]*Value, len(c.data))
	for _, lists := range [][2][][]int{{nil, c.idx}, {c.src, c.dst}} {
		run := func() {
			tp.Reset()
			for k, m := range c.data {
				parts[k] = tp.Var(m)
			}
			ScatterAddN(c.rows, parts, lists[0], lists[1]).BackwardWithGradient(c.w)
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("steady-state taped ScatterAddN (source rows %v) allocates %.0f times, want 0", lists[0] != nil, allocs)
		}
	}
}
