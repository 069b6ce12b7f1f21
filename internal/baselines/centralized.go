package baselines

import (
	"fmt"
	"math/rand"

	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/rng"
)

// Centralized is the non-private upper bound: the server holds the full
// graph and raw features (paper §VIII-C, "Centralized GNN network models").
type Centralized struct {
	g   *graph.Graph
	run *runner
}

// NewCentralized builds a centralized trainer over the full graph g.
func NewCentralized(g *graph.Graph, cfg ModelConfig) (*Centralized, error) {
	if g.Features == nil {
		return nil, fmt.Errorf("baselines: centralized model needs features")
	}
	run, err := newRunner(cfg, nn.NewConvGraph(g.N, g.Edges), g.Features, g.NumClasses)
	if err != nil {
		return nil, err
	}
	return &Centralized{g: g, run: run}, nil
}

// TrainSupervised fits node classification on the training vertices, with
// validation-accuracy model selection.
func (c *Centralized) TrainSupervised(split *graph.NodeSplit) []float64 {
	weights := make([]float64, c.g.N)
	for _, v := range split.Train {
		weights[v] = 1
	}
	return c.run.train(c.run.crossEntropy(c.g.Labels, weights), c.run.accuracyOn(c.g.Labels, split.IsVal))
}

// EvaluateAccuracy returns test accuracy over mask.
func (c *Centralized) EvaluateAccuracy(mask []bool) (float64, error) {
	return c.run.accuracy(c.g.Labels, mask)
}

// CentralizedLink is the centralized unsupervised variant: message passing
// and positive pairs come from the training edges only, negatives are
// resampled every epoch against the full graph.
type CentralizedLink struct {
	full *graph.Graph
	es   *graph.EdgeSplit
	run  *runner
	rng  *rand.Rand
}

// NewCentralizedLink builds the centralized link-prediction trainer.
func NewCentralizedLink(full *graph.Graph, es *graph.EdgeSplit, cfg ModelConfig) (*CentralizedLink, error) {
	if full.Features == nil {
		return nil, fmt.Errorf("baselines: centralized model needs features")
	}
	run, err := newRunner(cfg, nn.NewConvGraph(full.N, es.Train), full.Features, 0)
	if err != nil {
		return nil, err
	}
	return &CentralizedLink{
		full: full,
		es:   es,
		run:  run,
		rng:  rng.New(cfg.Seed ^ 0x6c696e6b),
	}, nil
}

// Train fits the link-prediction objective on the training edges.
func (c *CentralizedLink) Train() []float64 {
	return c.run.train(c.run.linkLoss(c.es.Train, sampleNonEdgesFn(c.full, len(c.es.Train), c.rng)),
		c.run.aucOn(c.es.Val, c.es.ValNeg))
}

// EvaluateAUC returns ROC-AUC over the test edges and sampled non-edges.
func (c *CentralizedLink) EvaluateAUC() (float64, error) {
	return c.run.auc(c.es.Test, c.es.TestNeg)
}
