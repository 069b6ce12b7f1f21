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
)

// Options scales the experiment suite. The defaults are laptop-sized; the
// paper-scale settings are reachable with Scale=1 and PaperEpochs.
type Options struct {
	// FacebookScale and LastFMScale scale the two dataset presets
	// (defaults 0.02 and 0.1 — a few hundred devices each).
	FacebookScale float64
	LastFMScale   float64
	// Epochs for every trainer (default 60; paper: 300).
	Epochs int
	// Epsilon is the Lumos/LPGNN feature budget (default 2, as in §VIII-B).
	Epsilon float64
	// MCMCIterations for tree trimming (default 150; paper: 1000 Facebook,
	// 300 LastFM).
	MCMCIterations int
	// SecureCompare toggles real OT-based comparisons (default off in the
	// harness for speed; identical outputs either way).
	SecureCompare bool
	// Backbones to evaluate (default GCN and GAT).
	Backbones []nn.Backbone
	// Datasets to evaluate (default both presets).
	Datasets []string
	// Task selects the objective the scenario-simulation runner drives
	// (default core.Supervised — node classification with an accuracy
	// timeline; core.Unsupervised simulates link prediction with an AUC
	// timeline). The per-figure runners ignore it: each figure fixes its
	// own task.
	Task core.Task
	// Workers sizes every trainer's worker pool (0 = one per CPU). Results
	// are bit-identical for any value; this only changes wall-clock time.
	Workers int
	// Sched selects the round scheduling mode for the Lumos systems
	// (default core.SchedSync, the paper's lockstep protocol).
	Sched core.Sched
	// Staleness is the async gradient-staleness bound (SchedAsync only).
	Staleness int
	// Topology, when non-empty, adds a decentralized (gossip) run per
	// dataset to the scenario-simulation timeline: a topo.ParseSpec string
	// ("ring:4", "ba:2", "complete", "file:<path>") built over each
	// dataset's device count with the run seed.
	Topology string
	Seed     int64
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

// mcmcItersFor mirrors the paper's per-dataset iteration counts when the
// caller asks for paper settings; otherwise the configured count is used.
func (o *Options) mcmcItersFor(dataset string) int {
	return o.MCMCIterations
}

// engineCfg copies the training-engine knobs (worker pool size, scheduling
// mode, staleness bound) into a system config. Every runner routes its
// core.Config through this so the whole suite honors the engine options.
func (o *Options) engineCfg(cfg core.Config) core.Config {
	cfg.Workers = o.Workers
	cfg.Sched = o.Sched
	cfg.Staleness = o.Staleness
	return cfg
}
