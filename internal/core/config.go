// Package core assembles Lumos from its substrates: the heterogeneity-aware
// tree constructor (internal/tree + internal/balance, paper §V) and the
// tree-based GNN trainer (paper §VI) with LDP embedding initialization,
// per-device tree message passing, the cross-device POOL layer, and
// supervised / unsupervised loss computation over the fed simulation fabric.
//
// All devices' trees are evaluated as one block-diagonal "forest" graph,
// sharded across per-worker autodiff tapes that are recycled every epoch:
// that is numerically identical to every device running its own tree and
// exchanging embeddings, while the fed.Network still accounts each message
// a real deployment would send.
package core

import (
	"fmt"
	"runtime"

	"lumos/internal/nn"
	"lumos/internal/obs"
)

// Sched selects how device updates are scheduled within a training round.
type Sched int

const (
	// SchedSync is the paper's lockstep protocol: every epoch waits for all
	// devices, gradients are aggregated synchronously, and the epoch time is
	// dominated by the straggler.
	SchedSync Sched = iota
	// SchedAsync is staleness-bounded asynchronous scheduling: straggler
	// shards may apply their gradient contributions up to Config.Staleness
	// epochs late, and the cost model amortizes their compute accordingly.
	// Scheduling is simulated deterministically (delays derive from the
	// shard workload ranking), so training remains reproducible.
	SchedAsync
	// SchedGossip is decentralized scheduling: there is no aggregator, and
	// devices average model deltas with their contact-graph neighbors using
	// Metropolis–Hastings weights. The core engine itself runs each device's
	// local step synchronously (gossip has no delayed-gradient queue); the
	// decentralized exchange is orchestrated by internal/sim over per-device
	// model replicas (see System.NewReplica) and a sim.Scenario.Topology.
	SchedGossip
)

// String names the scheduling mode.
func (s Sched) String() string {
	switch s {
	case SchedSync:
		return "sync"
	case SchedAsync:
		return "async"
	case SchedGossip:
		return "gossip"
	default:
		return fmt.Sprintf("Sched(%d)", int(s))
	}
}

// ParseSched parses a scheduling-mode name as used in CLI flags.
func ParseSched(name string) (Sched, error) {
	switch name {
	case "sync":
		return SchedSync, nil
	case "async", "staleness":
		return SchedAsync, nil
	case "gossip":
		return SchedGossip, nil
	default:
		return 0, fmt.Errorf("core: unknown scheduling mode %q (want sync|async|gossip)", name)
	}
}

// Task selects the training objective.
type Task int

const (
	// Supervised trains node classification with local labels (§VI-C a).
	Supervised Task = iota
	// Unsupervised trains link prediction with negative sampling (§VI-C b).
	Unsupervised
)

// String names the task as in the paper's figures.
func (t Task) String() string {
	switch t {
	case Supervised:
		return "supervised"
	case Unsupervised:
		return "unsupervised"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// ParseTask parses a task name as used in CLI flags, mirroring ParseSched.
// "node" and "link" are accepted as shorthands for the two objectives.
func ParseTask(name string) (Task, error) {
	switch name {
	case "supervised", "node":
		return Supervised, nil
	case "unsupervised", "link":
		return Unsupervised, nil
	default:
		return 0, fmt.Errorf("core: unknown task %q (want supervised|unsupervised)", name)
	}
}

// Config collects every Lumos hyperparameter. Zero values select the
// paper's experimental settings where they exist.
type Config struct {
	Task     Task
	Backbone nn.Backbone

	// Hidden and OutDim are the GNN layer widths (paper: both 16).
	Hidden int
	OutDim int
	// Layers is the GNN depth l (paper: 2).
	Layers int
	// Heads is the GAT attention head count (paper: 4).
	Heads int
	// Dropout follows each hidden activation (paper: 0.01).
	Dropout float64

	// Epsilon is the LDP privacy budget ε for feature encoding (paper
	// default: 2).
	Epsilon float64
	// LearningRate for Adam (paper: 0.01).
	LearningRate float64
	// WeightDecay is Adam's decoupled L2 coefficient (default 5e-4, the
	// standard GCN setting; set negative to disable).
	WeightDecay float64
	// Epochs is the number of training epochs (paper: 300).
	Epochs int
	// EvalEvery controls how often validation-based model selection runs
	// (default: every 5 epochs). The paper's 50/25/25 and 80/5/15 splits
	// include a validation set for exactly this purpose.
	EvalEvery int

	// MCMCIterations is the tree-trimming iteration count T (paper: 1000
	// for Facebook, 300 for LastFM).
	MCMCIterations int
	// SecureCompare runs degree/workload comparisons under the OT-based
	// protocol; when false they are evaluated in plaintext with identical
	// results and estimated traffic (for large benchmarks).
	SecureCompare bool

	// DisableVirtualNodes reproduces the "Lumos w.o. VN" ablation: trees
	// are replaced by the raw ego-network star graphs.
	DisableVirtualNodes bool
	// DisableTreeTrimming reproduces the "Lumos w.o. TT" ablation: every
	// device keeps its full neighbor set.
	DisableTreeTrimming bool

	// NegPerPos is the number of negative samples per positive pair in the
	// unsupervised loss (default 1).
	NegPerPos int

	// DisableRowNorm turns off the default local L2 normalization of leaf
	// features after LDP recovery (see buildForest).
	DisableRowNorm bool

	// Workers sizes the training engine's worker pool (default
	// runtime.NumCPU()). It affects wall-clock time only: losses and trained
	// weights are bit-identical for every Workers value under a fixed Seed,
	// because shard results are reduced in a fixed tree order and every
	// shard owns its private RNG stream.
	Workers int
	// Shards is the number of device shards the forest is partitioned into
	// (contiguous device ranges balanced by tree size). 0 means
	// min(N, DefaultShards) on every host. The partition fixes the
	// computation graph and its reduction order, so the bits depend on
	// Shards but never on Workers or on the machine. The trade-off: a
	// default system has at most DefaultShards (32) shards, so at most 32
	// workers have work on a many-core host; set Shards higher there.
	Shards int
	// Sched selects synchronous (default, the paper's protocol) or
	// staleness-bounded asynchronous round scheduling.
	Sched Sched
	// Staleness bounds, in epochs, how late a straggler shard's gradient may
	// be applied under SchedAsync (default 1 when async; ignored when sync).
	Staleness int

	// Metrics, when non-nil, receives runtime counters/gauges/histograms
	// from the training session (steps, losses, step durations, gradient
	// queue depth, model-selection events). Nil — the default — disables
	// telemetry entirely: the session takes the exact same code paths and
	// allocates nothing extra, so golden loss traces stay bit-identical.
	Metrics *obs.Registry
	// Tracer, when non-nil, records per-step spans and model-selection
	// instants on a wall-clock timeline. Leave nil inside the simulator,
	// which runs on virtual time and owns its own tracer.
	Tracer *obs.Tracer

	Seed int64
}

// DefaultShards is the forest partition count used when Config.Shards is 0
// (capped at the device count).
const DefaultShards = 32

// Validate fills the paper's defaults and checks ranges.
func (c *Config) Validate() error {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.OutDim == 0 {
		c.OutDim = 16
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.Dropout == 0 {
		c.Dropout = 0.01
	}
	if c.Epsilon == 0 {
		c.Epsilon = 2
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("core: negative privacy budget %v", c.Epsilon)
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("core: non-positive learning rate %v", c.LearningRate)
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 5e-4
	}
	if c.WeightDecay < 0 {
		c.WeightDecay = 0
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
	if c.EvalEvery < 0 {
		return fmt.Errorf("core: negative EvalEvery %d", c.EvalEvery)
	}
	if c.Epochs == 0 {
		c.Epochs = 300
	}
	if c.Epochs < 0 {
		return fmt.Errorf("core: negative epoch count %d", c.Epochs)
	}
	if c.MCMCIterations < 0 {
		return fmt.Errorf("core: negative MCMC iteration count %d", c.MCMCIterations)
	}
	if c.NegPerPos == 0 {
		c.NegPerPos = 1
	}
	if c.NegPerPos < 0 {
		return fmt.Errorf("core: negative NegPerPos %d", c.NegPerPos)
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	switch c.Sched {
	case SchedSync:
		// Staleness is meaningless under lockstep scheduling; reject instead
		// of silently ignoring a knob the caller thinks is live.
		if c.Staleness != 0 {
			return fmt.Errorf("core: Staleness=%d requires Sched=SchedAsync", c.Staleness)
		}
	case SchedAsync:
		if c.Staleness == 0 {
			c.Staleness = 1
		}
		if c.Staleness < 0 {
			return fmt.Errorf("core: negative staleness bound %d", c.Staleness)
		}
	case SchedGossip:
		// Gossip exchanges whole-model deltas each round; there is no
		// delayed-gradient queue for a staleness bound to govern.
		if c.Staleness != 0 {
			return fmt.Errorf("core: Staleness=%d requires Sched=SchedAsync", c.Staleness)
		}
	default:
		return fmt.Errorf("core: unknown scheduling mode %v", c.Sched)
	}
	if c.Hidden < 0 || c.OutDim < 0 || c.Layers < 0 || c.Heads < 0 {
		return fmt.Errorf("core: negative model dimension")
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("core: dropout %v outside [0,1)", c.Dropout)
	}
	return nil
}
