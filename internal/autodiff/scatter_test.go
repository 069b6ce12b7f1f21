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
// kept here as the oracle: pad every part to rows×cols (segmentSum, the
// scatter-onto-zeros op of csr_test.go) and sum the padded parts with AddN.

func denseScatterOracle(rows int, parts []*Value, idx [][]int) *Value {
	padded := make([]*Value, len(parts))
	for k, p := range parts {
		padded[k] = segmentSum(p, idx[k], rows)
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
	return c
}

// leaves wraps the case's matrices as fresh leaves, on tape tp when non-nil.
func (c scatterCase) leaves(tp *Tape) []*Value {
	out := make([]*Value, len(c.data))
	for k, m := range c.data {
		switch {
		case tp != nil && c.cnst[k]:
			out[k] = tp.Const(m)
		case tp != nil:
			out[k] = tp.Var(m)
		case c.cnst[k]:
			out[k] = Const(m)
		default:
			out[k] = Var(m)
		}
	}
	return out
}

func TestGradScatterAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, c := randVar(3, 2, rng), randVar(1, 2, rng), randVar(2, 2, rng)
	idx := [][]int{{0, 2, 4}, {2}, {2, 3}}
	gradCheck(t, "scatteraddn", []*Value{a, b, c}, func() *Value {
		return SumSquares(ScatterAddN(6, []*Value{a, b, c}, idx))
	})
	// A row list may also name a row twice.
	gradCheck(t, "scatteraddn/repeat", []*Value{a}, func() *Value {
		return SumSquares(ScatterAddN(3, []*Value{a}, [][]int{{1, 1, 0}}))
	})
}

// TestScatterAddNMatchesDenseOracle: forward data and every part's gradient
// equal the dense oracle's bit for bit, over random row partitions (shared
// row, one-row part, constant part, single-part call), untaped and on a tape
// that is reset and re-recorded (so a recycled output buffer must come back
// zeroed).
func TestScatterAddNMatchesDenseOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randScatterCase(rng, 1+int(seed%6))
		name := fmt.Sprintf("seed %d (%d parts)", seed, len(c.data))

		want := c.leaves(nil)
		wantOut := denseScatterOracle(c.rows, want, c.idx)
		SumAll(MulElem(wantOut, Const(c.w))).Backward()

		check := func(mode string, got []*Value, out *Value) {
			t.Helper()
			requireBits(t, name+"/"+mode+"/forward", wantOut.Data, out.Data)
			SumAll(MulElem(out, Const(c.w))).Backward()
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
		got := c.leaves(nil)
		check("untaped", got, ScatterAddN(c.rows, got, c.idx))

		tp := NewTape()
		for pass := 0; pass < 2; pass++ {
			tp.Reset()
			got = c.leaves(tp)
			out := ScatterAddN(c.rows, got, c.idx)
			if out.tape != tp {
				t.Fatalf("%s: op over one tape's leaves did not record on it", name)
			}
			check(fmt.Sprintf("taped pass %d", pass), got, out)
		}
	}
}

// TestScatterAddNNegativeZero pins the −0 contract of the op's doc: parts
// accumulate onto +0, so −0.0 entries come out +0.0, in the output and in
// the gathered gradients. (The dense AddN copied its first term, and would
// have kept a −0.0 every part agreed on.)
func TestScatterAddNNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := Var(tensor.FromRows([][]float64{{negZero, 1}}))
	out := ScatterAddN(2, []*Value{p}, [][]int{{1}})
	requireBits(t, "forward", tensor.FromRows([][]float64{{0, 0}, {0, 1}}), out.Data)
	out.Grad = tensor.FromRows([][]float64{{7, 7}, {negZero, 2}})
	out.back(out)
	requireBits(t, "gradient", tensor.FromRows([][]float64{{0, 2}}), p.Grad)
}

// TestScatterAddNTapedSteadyState: on a warm tape the op and its backward
// allocate nothing, however many parts it sums.
func TestScatterAddNTapedSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	c := randScatterCase(rand.New(rand.NewSource(1)), 12)
	tp := NewTape()
	parts := make([]*Value, len(c.data))
	run := func() {
		tp.Reset()
		for k, m := range c.data {
			parts[k] = tp.Var(m)
		}
		ScatterAddN(c.rows, parts, c.idx).BackwardWithGradient(c.w)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state taped ScatterAddN allocates %.0f times, want 0", allocs)
	}
}
