package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
)

// baselineRun is one comparison system trained from scratch: its loss trace
// and its final test metric (accuracy or AUC).
type baselineRun func(t *testing.T) (losses []float64, metric float64)

func centralizedNode(bb nn.Backbone) baselineRun {
	return func(t *testing.T) ([]float64, float64) {
		g := blGraph(t, 1)
		split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
		c, err := NewCentralized(g, ModelConfig{Backbone: bb, Epochs: 6, EvalEvery: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		losses := c.TrainSupervised(split)
		acc, err := c.EvaluateAccuracy(split.IsTest)
		if err != nil {
			t.Fatal(err)
		}
		return losses, acc
	}
}

func centralizedLink(bb nn.Backbone) baselineRun {
	return func(t *testing.T) ([]float64, float64) {
		g := blGraph(t, 2)
		es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCentralizedLink(g, es, ModelConfig{Backbone: bb, Epochs: 6, EvalEvery: 2, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		losses := c.Train()
		auc, err := c.EvaluateAUC()
		if err != nil {
			t.Fatal(err)
		}
		return losses, auc
	}
}

// lpgnnNoisy trains LPGNN through its forward-correction (NoisyLabelCE) loss.
func lpgnnNoisy(t *testing.T) ([]float64, float64) {
	g := blGraph(t, 3)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(3)))
	lp, err := NewLPGNN(g, LPGNNConfig{
		ModelConfig: ModelConfig{Backbone: nn.GCN, Epochs: 6, EvalEvery: 2, Seed: 3},
		EpsX:        2, EpsY: 1, ForwardCorrection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	losses := lp.TrainSupervised(split)
	acc, err := lp.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	return losses, acc
}

func naiveFedNode(t *testing.T) ([]float64, float64) {
	g := blGraph(t, 5)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(5)))
	nf, err := NewNaiveFed(g, NaiveFedConfig{
		ModelConfig: ModelConfig{Backbone: nn.GCN, Epochs: 6, EvalEvery: 2, Seed: 5},
		EpsFeature:  2, EpsEdge: 2, EpsLabel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := nf.TrainSupervised(split)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := nf.EvaluateAccuracy(split.IsTest)
	if err != nil {
		t.Fatal(err)
	}
	return losses, acc
}

func naiveFedLink(t *testing.T) ([]float64, float64) {
	g := blGraph(t, 6)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NewNaiveFed(es.TrainGraph, NaiveFedConfig{
		ModelConfig: ModelConfig{Backbone: nn.GCN, Epochs: 6, EvalEvery: 2, Seed: 6},
		EpsFeature:  2, EpsEdge: 2, EpsLabel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	losses := nf.TrainLink(es.Val, es.ValNeg)
	auc, err := nf.EvaluateAUC(es.Test, es.TestNeg)
	if err != nil {
		t.Fatal(err)
	}
	return losses, auc
}

// baselineGoldens are the loss traces and final metrics of the comparison
// systems, recorded when the runner still built its graphs without a tape
// (allocating every op output and differentiating depth-first).
var baselineGoldens = []struct {
	name   string
	run    baselineRun
	losses []float64
	metric float64
}{
	{name: "centralized/GCN/node", run: centralizedNode(nn.GCN),
		losses: []float64{
			0x1.9773697394929p-01, 0x1.71c84c46e49c5p-01, 0x1.521150e330156p-01,
			0x1.33ac3c66dcba6p-01, 0x1.18204cb9cb9e5p-01, 0x1.f7ffb447b1304p-02,
		},
		metric: 0x1p+00},
	{name: "centralized/GAT/node", run: centralizedNode(nn.GAT),
		losses: []float64{
			0x1.3e0abb9411aedp-01, 0x1.f0f11e66ac966p-02, 0x1.7bf7f912f988ep-02,
			0x1.0d806b621e865p-02, 0x1.669435f42325cp-03, 0x1.b60850b3c4457p-04,
		},
		metric: 0x1p+00},
	{name: "centralized/GCN/link", run: centralizedLink(nn.GCN),
		losses: []float64{
			0x1.4c9741de72d85p-01, 0x1.4548cb8b79e3p-01, 0x1.3f727d0b662bcp-01,
			0x1.38a5e67bd9663p-01, 0x1.2fb5a71a70463p-01, 0x1.236875fdb363dp-01,
		},
		metric: 0x1.86b2eed727f62p-01},
	{name: "centralized/GAT/link", run: centralizedLink(nn.GAT),
		losses: []float64{
			0x1.5d2b6f63a90c3p-01, 0x1.4e0351485f46cp-01, 0x1.3d339d2be2f8bp-01,
			0x1.38f1e1c95a1a6p-01, 0x1.3a29a41688444p-01, 0x1.30700caf61773p-01,
		},
		metric: 0x1.4c827f035deccp-01},
	{name: "lpgnn/forward-correction", run: lpgnnNoisy,
		losses: []float64{
			0x1.7186fc51c09bp-01, 0x1.622003d74061p-01, 0x1.55f9d12022911p-01,
			0x1.4aa31bc7cfe1cp-01, 0x1.4255d8bd8b405p-01, 0x1.3b3f6de15bdfap-01,
		},
		metric: 0x1.e2be2be2be2bep-01},
	{name: "naivefed/node", run: naiveFedNode,
		losses: []float64{
			0x1.965d432a7462ep-01, 0x1.66e66c2186165p-01, 0x1.81d1edf905279p-01,
			0x1.6e4b276daec08p-01, 0x1.5673eaf3e0926p-01, 0x1.517b6982d8653p-01,
		},
		metric: 0x1.5075075075075p-01},
	{name: "naivefed/link", run: naiveFedLink,
		losses: []float64{
			0x1.159861c35d019p+03, 0x1.77b0330022814p+02, 0x1.dfb8fa6405de3p+01,
			0x1.4af63d94cf66p+01, 0x1.ad19188889f84p+00, 0x1.3c2c3978ea5f2p+00,
		},
		metric: 0x1.600f9a9342cdcp-01},
}

// TestBaselineGoldens pins every comparison system's loss trace and final
// metric bit for bit. On a mismatch it prints the values it got, in the
// table's hex-float form.
func TestBaselineGoldens(t *testing.T) {
	for _, gc := range baselineGoldens {
		t.Run(gc.name, func(t *testing.T) {
			losses, metric := gc.run(t)
			same := len(losses) == len(gc.losses) && math.Float64bits(metric) == math.Float64bits(gc.metric)
			for i := 0; same && i < len(losses); i++ {
				same = math.Float64bits(losses[i]) == math.Float64bits(gc.losses[i])
			}
			if !same {
				hex := make([]string, len(losses))
				for i, l := range losses {
					hex[i] = fmt.Sprintf("%x", l)
				}
				t.Fatalf("got losses: []float64{%s}, metric: %x; want %x, %x",
					strings.Join(hex, ", "), metric, gc.losses, gc.metric)
			}
		})
	}
}
