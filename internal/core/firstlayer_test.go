package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/tensor"
)

// The first layer multiplies through Forest.XView, which equals the dense
// product on Forest.X only up to summation order. The dense input survives
// as the oracle (engine.denseInput); these tests hold the view to it.

// caseSessions builds c's system twice — the engine as it runs, and the
// dense-input oracle — each with a fresh objective over the same split.
func caseSessions(t *testing.T, c constructCase) (view, oracle *Session) {
	t.Helper()
	const seed = 7
	g, err := graph.LoadDataset(c.dataset, c.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, newObj, err := SplitForTask(g, c.task, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, cfg := c.system(t)
	open := func(dense bool) *Session {
		sys, err := NewSystem(train, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.eng.denseInput = dense
		sess, err := sys.NewSession(newObj())
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	return open(false), open(true)
}

// requireRelClose fails unless got is within tol of want, relative to want's
// largest magnitude.
func requireRelClose(t *testing.T, name string, got, want *tensor.Matrix, tol float64) {
	t.Helper()
	scale := tensor.MaxAbs(want)
	for i, w := range want.Data() {
		if g := got.Data()[i]; !(math.Abs(g-w) <= tol*scale) {
			t.Fatalf("%s: entry %d = %v, oracle %v (relative error %.3g > %g)", name, i, g, w, math.Abs(g-w)/scale, tol)
		}
	}
}

// TestFirstLayerViewMatchesDense: on the four benchmark workloads' systems,
// the pooled evaluation forward through the view agrees with the dense
// oracle to 1e-12 relative; ten training steps agree on every loss to 1e-9
// relative; and the trained systems predict the same classes and score the
// same test metric.
func TestFirstLayerViewMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("trains eight systems; a numeric comparison the race detector adds nothing to")
	}
	for _, c := range constructCases {
		t.Run(c.name, func(t *testing.T) {
			view, oracle := caseSessions(t, c)
			requireRelClose(t, "pooled forward", view.sys.eng.forward().Data.Clone(), oracle.sys.eng.forward().Data, 1e-12)
			for step := 0; step < 10; step++ {
				got, err := view.Step()
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !(math.Abs(got-want) <= 1e-9*math.Abs(want)) {
					t.Fatalf("step %d: loss %v, oracle %v", step, got, want)
				}
			}
			embV, predV := view.sys.ServingTables()
			embO, predO := oracle.sys.ServingTables()
			requireRelClose(t, "trained embeddings", embV, embO, 1e-9)
			if !slices.Equal(predV, predO) {
				t.Fatal("trained predictions differ from the oracle's")
			}
			mv, err := view.TestMetric()
			if err != nil {
				t.Fatal(err)
			}
			mo, err := oracle.TestMetric()
			if err != nil {
				t.Fatal(err)
			}
			if mv != mo {
				t.Fatalf("test %s %v, oracle %v", view.MetricName(), mv, mo)
			}
		})
	}
}

// TestForestXViewDenseEqualsX: on the four benchmark workloads' systems the
// view stands for Forest.X bit for bit, does fewer entries' work than X has
// nonzeros, and every shard reads its own rows of it.
func TestForestXViewDenseEqualsX(t *testing.T) {
	for _, c := range constructCases {
		train, full, cfg := c.system(t)
		sys, err := NewSystem(train, full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := sys.Forest
		requireBitIdentical(t, c.name+"/XView.Dense()", f.XView.Dense(), f.X)
		nnz := 0
		for _, v := range f.X.Data() {
			if v != 0 {
				nnz++
			}
		}
		if e := f.XView.Entries(); e >= nnz {
			t.Fatalf("%s: XView does %d entries' work, X has %d nonzeros", c.name, e, nnz)
		}
		for i, sh := range sys.eng.shards {
			requireBitIdentical(t, fmt.Sprintf("%s/shard %d", c.name, i), sh.view.Dense(), sh.x.Clone())
		}
	}
}

// Dense raw features over a range whose "not transmitted" estimate is 0 give
// every row of the view the constant 0, so each row's residual is its
// nonzeros in ascending column order: the view's first-layer product is
// then the dense product bit for bit, the same terms summed in the same
// order.
func TestZeroConstantViewMultipliesAsX(t *testing.T) {
	g := pathGraph(t, 6)
	g.FeatLo, g.FeatHi = -1, 1
	for v := 0; v < g.N; v++ {
		for j := range g.Features.Row(v) {
			g.Features.Set(v, j, 0.25+0.1*float64(v+j))
		}
	}
	retained := make([][]int, g.N)
	for v := range retained {
		retained[v] = g.Adj[v]
	}
	f, _, _ := buildTestForest(t, g, retained, true)
	requireBitIdentical(t, "XView.Dense()", f.XView.Dense(), f.X)
	rng := rand.New(rand.NewSource(5))
	w := autodiff.Var(tensor.Uniform(f.X.Cols(), 4, -1, 1, rng))
	seed := tensor.Uniform(f.X.Rows(), 4, -1, 1, rng)
	layer := func(x *autodiff.Value) (out, grad *tensor.Matrix) {
		w.ZeroGrad()
		y := autodiff.MatMul(x, w)
		y.BackwardWithGradient(seed)
		return y.Data, w.Grad.Clone()
	}
	wantOut, wantGrad := layer(autodiff.NewTape().Const(f.X))
	gotOut, gotGrad := layer(autodiff.NewTape().ConstSparse(f.X, f.XView))
	requireBitIdentical(t, "first-layer product", gotOut, wantOut)
	requireBitIdentical(t, "weight gradient", gotGrad, wantGrad)
}
