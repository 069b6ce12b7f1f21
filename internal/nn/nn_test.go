package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 4, 3, rng)
	x := autodiff.NewTape().Const(tensor.Uniform(5, 4, -1, 1, rng))
	y := l.Forward(x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("linear output %dx%d", y.Rows(), y.Cols())
	}
	if len(l.Params()) != 2 {
		t.Fatalf("linear has %d params", len(l.Params()))
	}
	if CountParams(l) != 4*3+3 {
		t.Fatalf("CountParams = %d", CountParams(l))
	}
}

func TestLinearComputesXWPlusB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 2, 2, rng)
	l.W.V.Data.CopyFrom(tensor.FromRows([][]float64{{1, 2}, {3, 4}}))
	l.B.V.Data.CopyFrom(tensor.FromRows([][]float64{{10, 20}}))
	x := autodiff.NewTape().Const(tensor.FromRows([][]float64{{1, 1}}))
	y := l.Forward(x)
	if y.Data.At(0, 0) != 14 || y.Data.At(0, 1) != 26 {
		t.Fatalf("linear output %v", y.Data)
	}
}

func TestNewConvGraphSelfLoopsAndNorm(t *testing.T) {
	// Path graph 0-1-2.
	g := NewConvGraph(3, [][2]int{{0, 1}, {1, 2}})
	if len(g.Src) != 2*2+3 {
		t.Fatalf("edges = %d, want 7", len(g.Src))
	}
	// deg with self-loops: d0=2, d1=3, d2=2.
	// Edge (0,1): norm = 1/sqrt(2*3).
	found := false
	for i := range g.Src {
		if g.Src[i] == 0 && g.Dst[i] == 1 {
			found = true
			want := 1 / math.Sqrt(6)
			if math.Abs(g.Norm[i]-want) > 1e-12 {
				t.Fatalf("norm = %v, want %v", g.Norm[i], want)
			}
		}
	}
	if !found {
		t.Fatal("edge (0,1) missing")
	}
}

func TestConvGraphOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConvGraph(2, [][2]int{{0, 5}})
}

func TestGCNConvRowStochasticOnUniform(t *testing.T) {
	// On a regular graph with identical features, GCN output is identical
	// across nodes (symmetric normalization of a regular graph).
	rng := rand.New(rand.NewSource(3))
	// Cycle of 4 nodes: every node has degree 2.
	g := NewConvGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	l := NewGCNConv("gcn", 3, 2, rng)
	x := autodiff.NewTape().Const(tensor.Full(4, 3, 1))
	y := l.Forward(g, x)
	for i := 1; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(y.Data.At(i, j)-y.Data.At(0, j)) > 1e-9 {
				t.Fatalf("regular graph rows differ: %v vs %v", y.Data.Row(i), y.Data.Row(0))
			}
		}
	}
}

func TestGCNConvManualTwoNodes(t *testing.T) {
	// Two nodes, one edge; W = I, b = 0; features e1, e2.
	rng := rand.New(rand.NewSource(4))
	g := NewConvGraph(2, [][2]int{{0, 1}})
	l := NewGCNConv("gcn", 2, 2, rng)
	l.W.V.Data.CopyFrom(tensor.Eye(2))
	l.B.V.Data.Zero()
	x := autodiff.NewTape().Const(tensor.FromRows([][]float64{{1, 0}, {0, 1}}))
	y := l.Forward(g, x)
	// deg (with self-loop) both 2: out0 = x0/2 + x1/2 = (0.5, 0.5).
	if math.Abs(y.Data.At(0, 0)-0.5) > 1e-12 || math.Abs(y.Data.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("gcn row0 = %v", y.Data.Row(0))
	}
}

func TestGATConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewConvGraph(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 5}})
	concat := NewGATConv("gat", 8, 4, 3, true, rng)
	x := autodiff.NewTape().Const(tensor.Uniform(6, 8, -1, 1, rng))
	y := concat.Forward(g, x)
	if y.Cols() != 12 {
		t.Fatalf("concat GAT output cols = %d, want 12", y.Cols())
	}
	if concat.OutDim() != 12 {
		t.Fatalf("OutDim = %d", concat.OutDim())
	}
	avg := NewGATConv("gat2", 8, 4, 3, false, rng)
	y2 := avg.Forward(g, x)
	if y2.Cols() != 4 {
		t.Fatalf("avg GAT output cols = %d, want 4", y2.Cols())
	}
	if got := len(avg.Params()); got != 3*3+1 {
		t.Fatalf("GAT params = %d", got)
	}
}

func TestGATAttentionIsNormalized(t *testing.T) {
	// A GAT layer with W=I and zero attention vectors assigns uniform
	// attention, so the output for a node is the mean of its in-neighbors
	// (incl. self-loop).
	rng := rand.New(rand.NewSource(6))
	g := NewConvGraph(3, [][2]int{{0, 1}, {1, 2}})
	l := NewGATConv("gat", 2, 2, 1, false, rng)
	l.W[0].V.Data.CopyFrom(tensor.Eye(2))
	l.AL[0].V.Data.Zero()
	l.AR[0].V.Data.Zero()
	l.B.V.Data.Zero()
	x := autodiff.NewTape().Const(tensor.FromRows([][]float64{{3, 0}, {0, 3}, {3, 3}}))
	y := l.Forward(g, x)
	// Node 1 receives from {0, 2, itself}: mean = (3+0+3, 0+3+3)/3 = (2,2).
	if math.Abs(y.Data.At(1, 0)-2) > 1e-9 || math.Abs(y.Data.At(1, 1)-2) > 1e-9 {
		t.Fatalf("gat row1 = %v", y.Data.Row(1))
	}
}

func TestGNNConfigValidate(t *testing.T) {
	bad := GNNConfig{Backbone: GCN, InDim: 0, Hidden: 4, OutDim: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero InDim")
	}
	cfg := GNNConfig{Backbone: GCN, InDim: 3, Hidden: 4, OutDim: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Layers != 2 || cfg.Heads != 1 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

func TestGNNForwardBothBackbones(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewConvGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	x := autodiff.NewTape().Const(tensor.Uniform(5, 6, -1, 1, rng))
	for _, bb := range []Backbone{GCN, GAT} {
		m, err := NewGNN(GNNConfig{Backbone: bb, InDim: 6, Hidden: 8, OutDim: 4, Heads: 2, Dropout: 0.1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		y := m.Forward(g, x, true, rng)
		if y.Rows() != 5 || y.Cols() != 4 {
			t.Fatalf("%v output %dx%d", bb, y.Rows(), y.Cols())
		}
		if tensor.HasNaN(y.Data) {
			t.Fatalf("%v produced NaN", bb)
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%v has no params", bb)
		}
	}
}

func TestGNNUnknownBackbone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := NewGNN(GNNConfig{Backbone: Backbone(9), InDim: 2, Hidden: 2, OutDim: 2}, rng); err == nil {
		t.Fatal("expected error for unknown backbone")
	}
}

func TestBackboneString(t *testing.T) {
	if GCN.String() != "GCN" || GAT.String() != "GAT" {
		t.Fatal("backbone names wrong")
	}
}

func TestClassifierEndToEndLearnsXORish(t *testing.T) {
	// Two clusters on a graph with cluster-pure features: the classifier
	// should separate them quickly.
	rng := rand.New(rand.NewSource(9))
	edges := [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}
	g := NewConvGraph(6, edges)
	x := tensor.FromRows([][]float64{
		{1, 0}, {1, 0}, {1, 0},
		{0, 1}, {0, 1}, {0, 1},
	})
	labels := []int{0, 0, 0, 1, 1, 1}
	clf, err := NewClassifier(GNNConfig{Backbone: GCN, InDim: 2, Hidden: 8, OutDim: 4, Dropout: 0.0}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.05)
	tape := autodiff.NewTape()
	var last float64
	for epoch := 0; epoch < 120; epoch++ {
		tape.Reset()
		h := clf.Encoder.Forward(g, tape.Const(x), true, rng)
		logits := clf.Head.Forward(h)
		loss := autodiff.SoftmaxCrossEntropy(logits, labels, nil)
		ZeroGrad(clf)
		loss.Backward()
		opt.Step(clf.Params())
		last = loss.Scalar()
	}
	if last > 0.1 {
		t.Fatalf("classifier failed to fit: final loss %v", last)
	}
	tape.Reset()
	h := clf.Encoder.Forward(g, tape.Const(x), false, rng)
	logits := clf.Head.Forward(h)
	for i, y := range labels {
		if tensor.ArgMaxRow(logits.Data, i) != y {
			t.Fatalf("node %d misclassified", i)
		}
	}
}

func TestClassifierNeedsTwoClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, err := NewClassifier(GNNConfig{Backbone: GCN, InDim: 2, Hidden: 2, OutDim: 2}, 1, rng); err == nil {
		t.Fatal("expected error for single class")
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear("fc", 3, 3, rng)
	snap := Snapshot(l)
	orig := l.W.V.Data.Clone()
	l.W.V.Data.Fill(0)
	Restore(l, snap)
	if !tensor.ApproxEqual(l.W.V.Data, orig, 0) {
		t.Fatal("restore did not recover weights")
	}
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m1, err := NewGNN(GNNConfig{Backbone: GAT, InDim: 4, Hidden: 6, OutDim: 3, Heads: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1); err != nil {
		t.Fatal(err)
	}
	m2, err := NewGNN(GNNConfig{Backbone: GAT, InDim: 4, Hidden: 6, OutDim: 3, Heads: 2}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m2); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if !tensor.ApproxEqual(p1[i].V.Data, p2[i].V.Data, 0) {
			t.Fatalf("param %s differs after round trip", p1[i].Name)
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := NewLinear("fc", 2, 2, rng)
	big := NewLinear("fc", 3, 3, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, small); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, big); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadParamsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewLinear("fc", 2, 2, rng)
	if err := LoadParams(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), l); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestCloneSharedSharesWeightsSplitsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	enc, err := NewGNN(GNNConfig{Backbone: GAT, InDim: 6, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	view := enc.CloneShared()
	ps, vs := enc.Params(), view.Params()
	if len(ps) != len(vs) {
		t.Fatalf("view has %d params, original %d", len(vs), len(ps))
	}
	for i := range ps {
		if vs[i].Name != ps[i].Name {
			t.Fatalf("param %d name %q != %q: order not preserved", i, vs[i].Name, ps[i].Name)
		}
		if vs[i].V == ps[i].V {
			t.Fatalf("param %q: view shares the Value, not just the data", ps[i].Name)
		}
		if vs[i].V.Data != ps[i].V.Data {
			t.Fatalf("param %q: view does not alias the weight matrix", ps[i].Name)
		}
	}

	// A backward through the view must leave the original's grads untouched.
	g := NewConvGraph(3, [][2]int{{0, 1}, {1, 2}})
	x := autodiff.NewTape().Const(tensor.Uniform(3, 6, -1, 1, rng))
	out := view.Forward(g, x, false, rng)
	autodiff.SumAll(out).Backward()
	for i := range ps {
		if ps[i].V.Grad != nil {
			t.Fatalf("param %q: view backward leaked into original grad", ps[i].Name)
		}
		if vs[i].V.Grad == nil {
			t.Fatalf("param %q: view got no gradient", ps[i].Name)
		}
	}

	// Restore on the original must be visible through the view (shared data).
	snap := Snapshot(enc)
	ps[0].V.Data.Fill(0)
	Restore(enc, snap)
	if !tensor.ApproxEqual(vs[0].V.Data, snap[0], 0) {
		t.Fatal("Restore not visible through the shared view")
	}
}

func TestCloneSharedLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	l := NewLinear("head", 4, 3, rng)
	v := l.CloneShared()
	if v.W.V.Data != l.W.V.Data || v.B.V.Data != l.B.V.Data {
		t.Fatal("Linear view does not share weights")
	}
	if v.W.V == l.W.V {
		t.Fatal("Linear view shares the W Value")
	}
}

func TestParseBackbone(t *testing.T) {
	for name, want := range map[string]Backbone{"gcn": GCN, "GAT": GAT, "Gcn": GCN} {
		if got, err := ParseBackbone(name); err != nil || got != want {
			t.Errorf("ParseBackbone(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBackbone("mlp"); err == nil {
		t.Error("ParseBackbone(mlp) accepted")
	}
}
