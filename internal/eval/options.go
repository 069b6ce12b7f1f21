// Package eval defines one runner per table/figure of the paper's
// evaluation (§VIII): Fig. 3 (supervised accuracy), Fig. 4 (link-prediction
// ROC-AUC), Fig. 5 (ε sensitivity), Fig. 6 (ablations), Fig. 7 (workload
// CDF), Fig. 8 (communication rounds and training time), plus the headline
// claims of §I. Each runner returns typed results consumed by the CLI, the
// benchmark harness, and the test suite, and can render an aligned text
// table mirroring the paper's figures.
package eval

import (
	"fmt"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/rng"
)

// Options scales the experiment suite. The defaults are laptop-sized; a
// paper-scale run sets both dataset scales to 1 and Epochs to 300.
type Options struct {
	// FacebookScale and LastFMScale scale the two dataset presets
	// (defaults 0.02 and 0.1 — a few hundred devices each).
	FacebookScale float64
	LastFMScale   float64
	// Epochs for every trainer (default 60; paper: 300).
	Epochs int
	// Epsilon is the Lumos/LPGNN feature budget (default 2, as in §VIII-B).
	Epsilon float64
	// MCMCIterations for tree trimming, one count for every dataset
	// (default 150; the paper uses 1000 for Facebook and 300 for LastFM).
	MCMCIterations int
	// SecureCompare toggles real OT-based comparisons (default off in the
	// harness for speed; identical outputs either way).
	SecureCompare bool
	// Backbones to evaluate (default GCN and GAT).
	Backbones []nn.Backbone
	// Datasets to evaluate (default both presets).
	Datasets []string
	// Workers sizes every trainer's worker pool (0 = one per CPU). Results
	// are bit-identical for any value; this only changes wall-clock time.
	Workers int
	// Sched selects the round scheduling mode for the Lumos systems
	// (default core.SchedSync, the paper's lockstep protocol).
	Sched core.Sched
	// Staleness is the async gradient-staleness bound (SchedAsync only).
	Staleness int
	Seed      int64
}

// Dataset names used throughout the harness.
const (
	DatasetFacebook = "Facebook"
	DatasetLastFM   = "LastFM"
)

// Validate fills defaults.
func (o *Options) Validate() error {
	if o.FacebookScale == 0 {
		o.FacebookScale = 0.02
	}
	if o.LastFMScale == 0 {
		o.LastFMScale = 0.1
	}
	if o.FacebookScale < 0 || o.FacebookScale > 1 || o.LastFMScale < 0 || o.LastFMScale > 1 {
		return fmt.Errorf("eval: dataset scales must lie in (0,1]")
	}
	if o.Epochs == 0 {
		o.Epochs = 60
	}
	if o.Epochs < 0 {
		return fmt.Errorf("eval: negative epochs %d", o.Epochs)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 2
	}
	if o.MCMCIterations == 0 {
		o.MCMCIterations = 150
	}
	if len(o.Backbones) == 0 {
		o.Backbones = []nn.Backbone{nn.GCN, nn.GAT}
	}
	if len(o.Datasets) == 0 {
		o.Datasets = []string{DatasetFacebook, DatasetLastFM}
	}
	for _, d := range o.Datasets {
		if d != DatasetFacebook && d != DatasetLastFM {
			return fmt.Errorf("eval: unknown dataset %q", d)
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return nil
}

// LoadDataset materializes one of the presets at the configured scale.
func (o *Options) LoadDataset(name string) (*graph.Graph, error) {
	switch name {
	case DatasetFacebook:
		return graph.FacebookLike(o.FacebookScale, o.Seed)
	case DatasetLastFM:
		return graph.LastFMLike(o.LastFMScale, o.Seed)
	default:
		return nil, fmt.Errorf("eval: unknown dataset %q", name)
	}
}

// dataset is one configured dataset as every runner starts it: the graph
// and, made on first use, the splits the paper trains on — the 50/25/25
// node split (stream rng.NodeSplit) and the 80/5/15 edge split (stream
// rng.EdgeSplit), both derived from the dataset's seed.
type dataset struct {
	name  string
	g     *graph.Graph
	seed  int64
	nodes *graph.NodeSplit
	edges *graph.EdgeSplit
}

func (d *dataset) nodeSplit() (*graph.NodeSplit, error) {
	if d.nodes == nil {
		s, err := graph.SplitNodes(d.g, 0.5, 0.25, rng.Stream(d.seed, rng.NodeSplit, 0))
		if err != nil {
			return nil, err
		}
		d.nodes = s
	}
	return d.nodes, nil
}

func (d *dataset) edgeSplit() (*graph.EdgeSplit, error) {
	if d.edges == nil {
		s, err := graph.SplitEdges(d.g, 0.8, 0.05, rng.Stream(d.seed, rng.EdgeSplit, 0))
		if err != nil {
			return nil, err
		}
		d.edges = s
	}
	return d.edges, nil
}

// forEach validates the options, then loads every configured dataset in
// order and runs fn on it.
func (o *Options) forEach(fn func(d *dataset) error) error {
	if err := o.Validate(); err != nil {
		return err
	}
	for _, name := range o.Datasets {
		g, err := o.LoadDataset(name)
		if err != nil {
			return err
		}
		if err := fn(&dataset{name: name, g: g, seed: o.Seed}); err != nil {
			return err
		}
	}
	return nil
}

// config is the system config every Lumos run of the suite starts from:
// the options' privacy, training, tree-trimming and engine knobs, for one
// task and backbone.
func (o *Options) config(task core.Task, bb nn.Backbone) core.Config {
	return core.Config{
		Task: task, Backbone: bb,
		Epsilon: o.Epsilon, Epochs: o.Epochs,
		MCMCIterations: o.MCMCIterations, SecureCompare: o.SecureCompare,
		Workers: o.Workers, Sched: o.Sched, Staleness: o.Staleness,
		Seed: o.Seed,
	}
}

// lumos trains one Lumos system on d for cfg.Task — node classification on
// the node split, or link prediction on the edge split's training graph —
// and returns its test metric (accuracy or ROC-AUC) with the training
// stats.
func (d *dataset) lumos(cfg core.Config) (float64, *core.TrainStats, error) {
	if cfg.Task == core.Unsupervised {
		es, err := d.edgeSplit()
		if err != nil {
			return 0, nil, err
		}
		sys, err := core.NewSystem(es.TrainGraph, d.g, cfg)
		if err != nil {
			return 0, nil, fmt.Errorf("eval: lumos %s/%s/%s: %w", d.name, cfg.Task, cfg.Backbone, err)
		}
		stats, err := sys.TrainUnsupervised(es)
		if err != nil {
			return 0, nil, err
		}
		auc, err := sys.EvaluateAUC(es.Test, es.TestNeg)
		return auc, stats, err
	}
	split, err := d.nodeSplit()
	if err != nil {
		return 0, nil, err
	}
	sys, err := core.NewSystem(d.g, d.g, cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("eval: lumos %s/%s/%s: %w", d.name, cfg.Task, cfg.Backbone, err)
	}
	stats, err := sys.TrainSupervised(split)
	if err != nil {
		return 0, nil, err
	}
	acc, err := sys.EvaluateAccuracy(split.IsTest)
	return acc, stats, err
}
