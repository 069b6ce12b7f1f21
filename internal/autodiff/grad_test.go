package autodiff

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"lumos/internal/tensor"
)

// The finite-difference table: every exported op's analytic gradient, as one
// Backward on a tape computes it, against central differences of the same
// recorded scalar. TestGradTableCoversEveryOp keeps the table complete: an
// exported op no row differentiates through fails it.

// gradCase is one row of the table.
type gradCase struct {
	test string   // the top-level test that runs the row
	name string   // the row's name in failure messages
	ops  []string // the exported ops the scalar differentiates through
	// params are the shapes of the differentiated leaves, recorded with
	// tp.Var in order and filled from U(−1, 1), kept at least 0.05 away
	// from 0 so the ReLU kinks stay out of the finite differences' reach.
	params [][2]int
	// f records the row's scalar on tp from the leaves — or, when cut is
	// set, the upstream value h of a graph cut in two.
	f func(tp *Tape, p []*Value) *Value
	// cut records the downstream scalar from a fresh leaf sharing h's data.
	// The analytic gradient then crosses the cut through
	// h.BackwardWithGradient(cut.Grad), the way the engine replays a shard
	// partial's gradient.
	cut func(cut *Value) *Value
}

// Fixed (non-differentiated) operands of the table's rows.
var (
	gradSoftmaxWeights = tensor.FromRows([][]float64{{0.7}, {-1.2}, {0.4}, {1.5}, {-0.3}, {0.9}})
	gradNoiseT         = [][]float64{
		{0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.8},
	}
	gradCutX = tensor.FromRows([][]float64{
		{0.3, -0.8, 0.5, 0.1}, {-0.6, 0.2, 0.9, -0.4}, {0.7, 0.7, -0.2, 0.6},
		{-0.1, -0.5, 0.3, 0.8}, {0.4, -0.9, -0.7, 0.2},
	})
	// gradCSR has an empty segment (2), a repeated source (1) and a
	// duplicate edge (1→0 twice).
	gradCSR  = tensor.NewCSR(4, []int{0, 1, 1, 3, 4, 1, 2}, []int{0, 0, 1, 1, 3, 0, 3})
	gradCoef = []float64{0.5, -1.5, 2, 0.25, 1, 0.75, -0.5}
	// gradSparseX is a 5×4 forest-shaped input: a constant row with
	// residuals in the first and last column, a zero-constant sparse row,
	// an empty row, an all-constant row, and a row sharing the first's span.
	gradSparseX = func() *tensor.ConstSparse {
		m := tensor.NewConstSparse(5, 4, 3)
		col, val := m.Residual()
		copy(col, []int32{0, 3, 1})
		copy(val, []float64{0.9, -0.6, 0.7})
		m.SetRow(0, 0.3, 0, 2)
		m.SetRow(1, 0, 2, 3)
		m.SetRow(3, -0.4, 0, 0)
		m.SetRow(4, 0.3, 0, 2)
		return m
	}()
)

var gradTable = []gradCase{
	{test: "TestGradMatMul", name: "matmul", ops: []string{"MatMul", "SumAll"},
		params: [][2]int{{3, 4}, {4, 2}},
		f:      func(tp *Tape, p []*Value) *Value { return SumAll(MatMul(p[0], p[1])) }},
	{test: "TestGradMatMul", name: "matmul/constsparse", ops: []string{"MatMul", "SumSquares"},
		// A Tape.ConstSparse left operand: the product and its right
		// operand's gradient run through the view's kernels.
		params: [][2]int{{4, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(MatMul(tp.ConstSparse(gradSparseX.Dense(), gradSparseX), p[0]))
		}},
	{test: "TestGradAddSub", name: "add/sub", ops: []string{"Add", "Sub", "MulElem", "SumAll"},
		params: [][2]int{{2, 3}, {2, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumAll(MulElem(Add(p[0], p[1]), Sub(p[0], p[1])))
		}},
	{test: "TestGradAddRow", name: "addrow", ops: []string{"AddRow", "SumSquares"},
		params: [][2]int{{4, 3}, {1, 3}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(AddRow(p[0], p[1])) }},
	{test: "TestGradScaleAddN", name: "scale/addn", ops: []string{"Scale", "AddN", "SumSquares"},
		params: [][2]int{{2, 2}, {2, 2}, {2, 2}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(AddN(Scale(p[0], 2.5), p[1], Scale(p[2], -0.5)))
		}},
	{test: "TestGradActivations", name: "relu", ops: []string{"ReLU", "SumSquares"},
		params: [][2]int{{3, 3}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(ReLU(p[0])) }},
	{test: "TestGradActivations", name: "leakyrelu", ops: []string{"LeakyReLU", "SumSquares"},
		params: [][2]int{{3, 3}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(LeakyReLU(p[0], 0.2)) }},
	{test: "TestGradDropoutMask", name: "dropout", ops: []string{"Dropout", "SumSquares"},
		params: [][2]int{{6, 5}},
		f: func(tp *Tape, p []*Value) *Value {
			// A freshly seeded stream per recording: every call draws the
			// same mask.
			return SumSquares(Dropout(p[0], 0.4, rand.New(rand.NewSource(5)), true))
		}},
	{test: "TestGradBiasReLUDropout", name: "biasreludropout/train", ops: []string{"BiasReLUDropout", "SumSquares"},
		params: [][2]int{{6, 5}, {1, 5}},
		f: func(tp *Tape, p []*Value) *Value {
			// A freshly seeded stream per recording: every call draws the
			// same mask.
			return SumSquares(BiasReLUDropout(p[0], p[1], 0.4, rand.New(rand.NewSource(5)), true))
		}},
	{test: "TestGradBiasReLUDropout", name: "biasreludropout/eval", ops: []string{"BiasReLUDropout", "SumSquares"},
		params: [][2]int{{6, 5}, {1, 5}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(BiasReLUDropout(p[0], p[1], 0.4, nil, false))
		}},
	{test: "TestGradGatherSegmentSum", name: "gather/segmentsum", ops: []string{"Gather", "SumSquares"},
		params: [][2]int{{5, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(segmentSum(Gather(p[0], []int{0, 2, 2, 4, 1, 0}), []int{0, 1, 0, 2, 2, 1}, 3))
		}},
	{test: "TestGradScaleRows", name: "scalerows", ops: []string{"SumSquares"},
		params: [][2]int{{4, 2}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(scaleRows(p[0], []float64{0.5, -1, 2, 0.25}))
		}},
	{test: "TestGradMulRowsByCol", name: "mulrowsbycol", ops: []string{"SumSquares"},
		params: [][2]int{{4, 3}, {4, 1}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(mulRowsByCol(p[0], p[1])) }},
	{test: "TestGradScatterAddN", name: "scatteraddn", ops: []string{"ScatterAddN", "SumSquares"},
		params: [][2]int{{3, 2}, {1, 2}, {2, 2}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(ScatterAddN(6, p, nil, [][]int{{0, 2, 4}, {2}, {2, 3}}))
		}},
	{test: "TestGradScatterAddN", name: "scatteraddn/repeat", ops: []string{"ScatterAddN", "SumSquares"},
		params: [][2]int{{3, 2}},
		f: func(tp *Tape, p []*Value) *Value {
			// A row list may name a row twice.
			return SumSquares(ScatterAddN(3, p, nil, [][]int{{1, 1, 0}}))
		}},
	{test: "TestGradScatterAddN", name: "scatteraddn/rows", ops: []string{"ScatterAddN", "SumSquares"},
		params: [][2]int{{3, 2}, {1, 2}, {2, 2}},
		f: func(tp *Tape, p []*Value) *Value {
			// Source-row lists: parts 0 and 2 contribute strict subsets of
			// their rows, part 1 all of its; row 3 receives two of part 0's
			// rows and part 1's.
			return SumSquares(ScatterAddN(4, p, [][]int{{0, 2}, nil, {1}}, [][]int{{3, 3}, {3}, {0}}))
		}},
	{test: "TestGradCSRAggregate", name: "csraggregate", ops: []string{"CSRAggregate", "SumSquares"},
		params: [][2]int{{5, 3}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(CSRAggregate(p[0], gradCSR, gradCoef)) }},
	{test: "TestGradCSRAggregate", name: "csraggregate/unweighted", ops: []string{"CSRAggregate", "SumSquares"},
		params: [][2]int{{5, 3}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(CSRAggregate(p[0], gradCSR, nil)) }},
	{test: "TestGradCSRAggregate", name: "csraggregatemul", ops: []string{"CSRAggregateMul", "SumSquares"},
		// Both the features and the per-edge weights are differentiated.
		params: [][2]int{{5, 3}, {7, 1}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(CSRAggregateMul(p[0], p[1], gradCSR)) }},
	{test: "TestGradSegmentSoftmax", name: "segmentsoftmax", ops: []string{"SegmentSoftmax", "MulElem", "SumAll"},
		params: [][2]int{{6, 1}},
		f: func(tp *Tape, p []*Value) *Value {
			// Weighted, so the gradient is not trivially zero.
			return SumAll(MulElem(SegmentSoftmax(p[0], []int{0, 0, 1, 1, 1, 2}, 3), tp.Const(gradSoftmaxWeights)))
		}},
	{test: "TestGradGATAttention", name: "gatattention/concat", ops: []string{"GATAttention", "SumSquares"},
		// Two heads over gatCSR (an empty segment, a repeated source, a
		// duplicate edge): projections 5×3, then aL, then aR per head.
		params: [][2]int{{5, 3}, {5, 3}, {3, 1}, {3, 1}, {3, 1}, {3, 1}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(GATAttention(p[0:2], p[2:4], p[4:6], gatCSR, 0.2, true))
		}},
	{test: "TestGradGATAttention", name: "gatattention/mean", ops: []string{"GATAttention", "SumSquares"},
		params: [][2]int{{5, 3}, {5, 3}, {3, 1}, {3, 1}, {3, 1}, {3, 1}},
		f: func(tp *Tape, p []*Value) *Value {
			return SumSquares(GATAttention(p[0:2], p[2:4], p[4:6], gatCSR, 0.2, false))
		}},
	{test: "TestGradConcat", name: "concatcols", ops: []string{"ConcatCols", "SumSquares"},
		params: [][2]int{{3, 2}, {3, 4}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(ConcatCols(p[0], p[1])) }},
	{test: "TestGradPairDot", name: "pairdot", ops: []string{"PairDot", "SumSquares"},
		params: [][2]int{{5, 4}},
		f: func(tp *Tape, p []*Value) *Value {
			// Includes a self-pair and repeated rows.
			return SumSquares(PairDot(p[0], []int{0, 1, 2, 0}, []int{3, 4, 2, 0}))
		}},
	{test: "TestGradSoftmaxCrossEntropy", name: "softmaxCE", ops: []string{"SoftmaxCrossEntropy"},
		params: [][2]int{{5, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return SoftmaxCrossEntropy(p[0], []int{0, 2, 1, 1, 0}, []float64{1, 0, 2, 1, 0.5})
		}},
	{test: "TestGradLogisticLoss", name: "logistic", ops: []string{"LogisticLoss"},
		params: [][2]int{{6, 1}},
		f: func(tp *Tape, p []*Value) *Value {
			return LogisticLoss(p[0], []float64{1, -1, 1, -1, 1, -1})
		}},
	{test: "TestGradNoisyLabelCE", name: "noisyCE", ops: []string{"NoisyLabelCE"},
		params: [][2]int{{4, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return NoisyLabelCE(p[0], []int{0, 1, 2, 1}, gradNoiseT, []float64{1, 1, 0, 2})
		}},
	{test: "TestGradSumMeanSquares", name: "sumsquares", ops: []string{"SumSquares"},
		params: [][2]int{{3, 4}},
		f:      func(tp *Tape, p []*Value) *Value { return SumSquares(p[0]) }},
	{test: "TestGradCutGraph", name: "cut", ops: []string{"MatMul", "AddRow", "ReLU", "SumSquares"},
		params: [][2]int{{4, 3}, {1, 3}},
		f: func(tp *Tape, p []*Value) *Value {
			return ReLU(AddRow(MatMul(tp.Const(gradCutX), p[0]), p[1]))
		},
		cut: func(cut *Value) *Value { return SumSquares(cut) }},
}

func TestGradMatMul(t *testing.T)              { runGradRows(t) }
func TestGradAddSub(t *testing.T)              { runGradRows(t) }
func TestGradAddRow(t *testing.T)              { runGradRows(t) }
func TestGradScaleAddN(t *testing.T)           { runGradRows(t) }
func TestGradActivations(t *testing.T)         { runGradRows(t) }
func TestGradBiasReLUDropout(t *testing.T)     { runGradRows(t) }
func TestGradGatherSegmentSum(t *testing.T)    { runGradRows(t) }
func TestGradScaleRows(t *testing.T)           { runGradRows(t) }
func TestGradMulRowsByCol(t *testing.T)        { runGradRows(t) }
func TestGradScatterAddN(t *testing.T)         { runGradRows(t) }
func TestGradCSRAggregate(t *testing.T)        { runGradRows(t) }
func TestGradSegmentSoftmax(t *testing.T)      { runGradRows(t) }
func TestGradConcat(t *testing.T)              { runGradRows(t) }
func TestGradGATAttention(t *testing.T)        { runGradRows(t) }
func TestGradPairDot(t *testing.T)             { runGradRows(t) }
func TestGradSoftmaxCrossEntropy(t *testing.T) { runGradRows(t) }
func TestGradLogisticLoss(t *testing.T)        { runGradRows(t) }
func TestGradNoisyLabelCE(t *testing.T)        { runGradRows(t) }
func TestGradSumMeanSquares(t *testing.T)      { runGradRows(t) }
func TestGradCutGraph(t *testing.T)            { runGradRows(t) }

// runGradRows checks every table row that names the calling test.
func runGradRows(t *testing.T) {
	t.Helper()
	ran := 0
	for _, c := range gradTable {
		if c.test == t.Name() {
			checkGrad(t, c)
			ran++
		}
	}
	if ran == 0 {
		t.Fatalf("no gradient table row names %s", t.Name())
	}
}

// checkGrad verifies one row's analytic gradient against central finite
// differences for every entry of every parameter. Each evaluation resets the
// tape and records the row afresh from leaves over the same matrices.
func checkGrad(t *testing.T, c gradCase) {
	t.Helper()
	const step, tol = 1e-5, 1e-4
	rng := rand.New(rand.NewSource(1))
	params := make([]*tensor.Matrix, len(c.params))
	for i, s := range c.params {
		params[i] = tensor.Apply(tensor.Uniform(s[0], s[1], -1, 1, rng), func(x float64) float64 {
			if math.Abs(x) < 0.05 {
				return x + 0.1
			}
			return x
		})
	}
	tp := NewTape()
	record := func() (leaves []*Value, h, cut, loss *Value) {
		tp.Reset()
		leaves = make([]*Value, len(params))
		for i, m := range params {
			leaves[i] = tp.Var(m)
		}
		loss = c.f(tp, leaves)
		if c.cut != nil {
			h = loss
			cut = tp.Var(h.Data)
			loss = c.cut(cut)
		}
		return leaves, h, cut, loss
	}

	leaves, h, cut, loss := record()
	loss.Backward()
	if h != nil {
		h.BackwardWithGradient(cut.Grad)
	}
	analytic := make([]*tensor.Matrix, len(leaves))
	for i, l := range leaves {
		if l.Grad == nil {
			t.Fatalf("%s: param %d received no gradient", c.name, i)
		}
		analytic[i] = l.Grad.Clone() // the next Reset recycles the buffer
	}
	scalar := func() float64 {
		_, _, _, loss := record()
		return loss.Scalar()
	}
	for pi, m := range params {
		d := m.Data()
		for i := range d {
			orig := d[i]
			d[i] = orig + step
			up := scalar()
			d[i] = orig - step
			down := scalar()
			d[i] = orig
			numeric := (up - down) / (2 * step)
			if got := analytic[pi].Data()[i]; math.Abs(numeric-got) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("%s: param %d entry %d: analytic %g vs numeric %g", c.name, pi, i, got, numeric)
			}
		}
	}
}

// TestGradTableCoversEveryOp reads the package source: every exported
// function returning a *Value other than the parameter constructor must
// appear in some row's ops, every op a row names must exist, and every row must name a
// test function that runs it.
func TestGradTableCoversEveryOp(t *testing.T) {
	leafConstructors := []string{"Var"}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var ops, tests []string
	fset := token.NewFileSet()
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		isTest := strings.HasSuffix(f.Name(), "_test.go")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if isTest {
				if strings.HasPrefix(name, "Test") {
					tests = append(tests, name)
				}
				continue
			}
			if returnsValue(fd) && !slices.Contains(leafConstructors, name) {
				ops = append(ops, name)
			}
		}
	}
	covered := map[string]bool{}
	for _, c := range gradTable {
		if !slices.Contains(tests, c.test) {
			t.Errorf("row %s names %s, which is not a test function", c.name, c.test)
		}
		for _, op := range c.ops {
			if !slices.Contains(ops, op) {
				t.Errorf("row %s names %s, which is not an exported op", c.name, op)
			}
			covered[op] = true
		}
	}
	for _, op := range ops {
		if !covered[op] {
			t.Errorf("exported op %s has no finite-difference row", op)
		}
	}
}

// returnsValue reports whether fd returns exactly one *Value.
func returnsValue(fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) != 1 || len(res.List[0].Names) > 1 {
		return false
	}
	star, ok := res.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Value"
}
