// Package lumos is the public API of this repository: a from-scratch Go
// implementation of "Lumos: Heterogeneity-aware Federated Graph Learning
// over Decentralized Devices" (Pan, Zhu, Chu — ICDE 2023), together with
// every substrate it needs (dense tensors with reverse-mode autodiff, GCN
// and GAT layers, an LDP toolkit, a simulated secure two-party comparison
// protocol, a federated device/network simulator) and the paper's three
// comparison systems.
//
// The package re-exports what the examples under examples/ use; the
// implementation lives under internal/, and the lumos-* commands under
// cmd/ reach the rest (lumos-bench regenerates every figure of the
// paper's evaluation). Quick start:
//
//	g, _ := lumos.FacebookLike(0.02, 1)
//	split, _ := lumos.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
//	sys, _ := lumos.NewSystem(g, g, lumos.Config{Task: lumos.Supervised, Backbone: lumos.GCN, Epochs: 60})
//	stats, _ := sys.TrainSupervised(split)
//	acc, _ := sys.EvaluateAccuracy(split.IsTest)
//
// # Objectives and training sessions
//
// The protocol is task-agnostic: the same tree-decomposed forward/backward
// and federated aggregation serve node classification and link prediction.
// An objective encapsulates everything task-specific — the loss built from
// the pooled embeddings (cross-entropy over a node split, or
// negative-sampled logistic loss over an edge split), the per-epoch
// sampling behind it, the validation/test metric, and the task's
// wire-traffic accounting. A session binds one objective to an assembled
// System and drives training either by full-participation epochs (Step) or
// round by round under a participation mask, gradient delays and cache TTL
// (StepRound with a RoundPlan):
//
//	sess, _ := sys.NewSession(lumos.NewSupervisedObjective(split))
//	for epoch := 0; epoch < 60; epoch++ {
//		sess.Step()
//	}
//	sess.FinishRounds()
//	stats := sess.Stats()
//
// TrainSupervised and TrainUnsupervised are thin loops over a session, and
// every other runner — the discrete-event simulator, the experiment
// runners, the CLIs' -task flags — drives sessions too.
//
// # Device-parallel training
//
// Training runs on a device-parallel engine: the forest of per-device trees
// is partitioned into Config.Shards contiguous shards (default:
// min(N, 32) on every host, balanced by tree size), and each epoch's local
// forward/backward passes execute on a worker pool of Config.Workers
// goroutines (default: one per CPU). Shard gradients are combined by a
// deterministic tree-ordered reduction, and every shard owns a private RNG
// stream split from Config.Seed, so with a fixed seed losses and trained
// weights are bit-identical for every Workers value. Workers is purely a
// wall-clock knob.
//
// What a shard hands the serial combine is what its devices push in the
// protocol (POOL, Eq. 31): one pooled embedding row per distinct vertex its
// leaves stand for. The combine scatter-adds those rows onto their vertices
// in fixed shard order, and a training step combines only the rows its
// loss reads, so at one device per shard (the simulator's setting) a
// round's combine, cut gradients and stale-partial cache cost
// Σ leaves·OutDim, not shards·N·OutDim, with results bit-identical to the
// dense combine (kept as a test oracle in internal/core).
//
// # Tape-based autodiff and kernels
//
// Every autodiff graph records on a tape (internal/autodiff.Tape): backward
// is a reverse linear sweep, and Tape.Reset recycles every node and buffer
// through a shape-keyed free list, so steady-state epochs are essentially
// allocation-free; allocation-budget tests in CI keep them so. The engine's
// shard passes, its combine, its evaluation forwards and the comparison
// baselines of Figs. 3–4 all run on tapes, so every compared system
// differentiates through the same code. Under the tape, matmuls are
// register-blocked and the GCN/GAT neighbourhood aggregation runs as single
// CSR-driven ops; none of this changes a floating-point summation order,
// so golden loss traces stay bit-identical to the scalar loops they were
// recorded on, which survive as test oracles. The one exception is the
// first layer's input: each shard multiplies its rows of Forest.XView, the
// forest input as LDP transmitted it (a constant per row plus a sparse
// residual), which equals the dense product up to summation order and
// costs O(rows + residual entries); goldens recorded before it run on the
// dense input, kept as a test oracle in internal/core.
//
// Config.Sched selects the round schedule. SchedSync (default) is the
// paper's lockstep protocol: every epoch aggregates all gradients and waits
// for the straggler; it is the only schedule the epoch trainers (Step,
// TrainSupervised, TrainUnsupervised) run. SchedAsync (staleness-bounded
// asynchronous aggregation, a straggler's gradient applying up to
// Config.Staleness rounds late) and SchedGossip (decentralized) run only in
// the simulator (below), which prices each round and derives its delays.
//
// # Scenario simulation (internal/sim)
//
// NewSimulator plays a SimScenario over an assembled System on a
// deterministic discrete-event clock: per-device profiles drawn from a
// fleet (FleetZipf's heavy straggler tail, FleetTrace's records from a
// FedScale-style trace such as SampleTrace synthesizes, and others) scale
// the cost model's compute, bandwidth, latency and power terms, and the
// scenario layers churn, partial participation, staleness-bounded catch-up
// and an optional finite aggregator capacity (DefaultCostModel with
// AggBytesPerSecond set) on top. Each committed round drives a real
// training session through StepRound, so a SimResult's timeline carries
// true losses and evaluation metrics alongside simulated wall-clock, wire
// bytes and fleet energy. The same seed and scenario reproduce the
// identical timeline for every Workers value. Walkthroughs:
// examples/churnstudy (sync vs async under churn) and examples/energystudy
// (energy against participation); the CLI is lumos-sim.
//
// # Topologies and gossip (internal/topo)
//
// SchedGossip drops the aggregator: training runs decentralized over a peer
// contact graph (SimScenario.Topology; ParseTopologySpec reads the
// "ring:<k>", "k-regular:<k>", "ba:<m>", "complete" and "file:<path>"
// specs lumos-sim -topology accepts). Each device keeps a private model
// replica; every round the participants run their local step, push model
// deltas to their topology neighbours over per-link queues, and average
// with whichever neighbours participated under Metropolis–Hastings weights
// w(d,j) = 1/(1+max(deg d, deg j)), mixing Adam's moments with the
// weights. examples/topologystudy plays one fleet over a ring, a k-regular
// graph and a scale-free graph and checks every topology lands within 5%
// of the star-synchronous final at equal rounds.
//
// # Snapshots and serving
//
// A trained model's answers leave the training process through versioned
// snapshots (internal/snapshot) and are served by replicas (internal/serve):
//
//	snap, _ := lumos.CaptureSnapshot(sys, lumos.SnapshotMeta{Dataset: g.Name})
//	v, _ := lumos.PublishSnapshot("model.snap", snap) // atomic write, version v
//
//	srv := lumos.NewServer(lumos.ServeOptions{})
//	defer srv.Close()
//	stop := srv.Watch("model.snap", 0) // hot-swap on republish
//	defer stop()
//	http.ListenAndServe(":8080", srv.Handler())
//
// A snapshot is the serving table: metadata, every vertex's pooled
// embedding and, with a classification head, its predicted class, under a
// CRC-32 trailer; truncation, bit flips and oversized length fields fail at
// decode time with bounded allocation. Publishing is atomic (temp file +
// fsync + rename) and auto-increments the version. The tables are the
// trainer's own evaluation outputs, so every served class and link score is
// bit-identical to what EvaluateAccuracy / EvaluateAUC computed in the
// training process, and a replica runs no model. A snapshot is not a
// checkpoint: it carries no weights. Entry points: lumos-train -publish, the
// lumos-serve CLI, and examples/servequickstart; bench/ measures the whole
// train→publish→serve loop.
//
// # Observability and run records (internal/obs, internal/report)
//
// Config.Metrics and Config.Tracer take a metrics registry and an event
// tracer (internal/obs); both default to nil, and the nil path is
// bit-and-allocation identical to an uninstrumented build. The CLIs expose
// them as -trace (Chrome trace-event JSON, viewable in Perfetto), -metrics
// and -metrics-out (Prometheus text); lumos-serve serves GET /metrics.
// -run-out records a lumos-sim or lumos-train run as a directory
// (manifest, per-round rows, final scrape), and lumos-report renders a
// record, analyzes a trace's critical paths and straggler blame, and diffs
// two records as a CI-able A/B gate.
package lumos

import (
	"math/rand"

	"lumos/internal/core"
	"lumos/internal/eval"
	"lumos/internal/fed"
	"lumos/internal/fleet"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/serve"
	"lumos/internal/sim"
	"lumos/internal/snapshot"
	"lumos/internal/topo"
)

// GenConfig parameterizes the synthetic social-graph generator.
type GenConfig = graph.GenConfig

// Generate produces a synthetic attributed social graph; vertex v is
// device v.
func Generate(cfg GenConfig) (*graph.Graph, error) { return graph.Generate(cfg) }

// FacebookLike returns the Facebook page-page stand-in at the given scale.
func FacebookLike(scale float64, seed int64) (*graph.Graph, error) {
	return graph.FacebookLike(scale, seed)
}

// LastFMLike returns the LastFM Asia stand-in at the given scale.
func LastFMLike(scale float64, seed int64) (*graph.Graph, error) {
	return graph.LastFMLike(scale, seed)
}

// SplitNodes partitions vertices for supervised learning (paper: 50/25/25).
func SplitNodes(g *graph.Graph, trainFrac, valFrac float64, rng *rand.Rand) (*graph.NodeSplit, error) {
	return graph.SplitNodes(g, trainFrac, valFrac, rng)
}

// SplitEdges partitions edges for link prediction (paper: 80/5/15).
func SplitEdges(g *graph.Graph, trainFrac, valFrac float64, rng *rand.Rand) (*graph.EdgeSplit, error) {
	return graph.SplitEdges(g, trainFrac, valFrac, rng)
}

// Backbone selects the GNN layer family.
type Backbone = nn.Backbone

// Backbone values.
const (
	GCN = nn.GCN
	GAT = nn.GAT
)

// The Lumos system.
type (
	// Config collects every Lumos hyperparameter; zero values choose the
	// paper's settings.
	Config = core.Config
	// Sched selects synchronous, staleness-bounded asynchronous, or
	// gossip round scheduling (see the package documentation).
	Sched = core.Sched
	// System is an assembled Lumos deployment.
	System = core.System
	// RoundPlan describes one partial-participation round for
	// Session.StepRound.
	RoundPlan = core.RoundPlan
)

// Task values.
const (
	Supervised   = core.Supervised
	Unsupervised = core.Unsupervised
)

// Scheduling modes.
const (
	SchedSync   = core.SchedSync
	SchedAsync  = core.SchedAsync
	SchedGossip = core.SchedGossip
)

// NewSupervisedObjective builds the node-classification objective over a
// train/val/test vertex split.
func NewSupervisedObjective(split *graph.NodeSplit) core.Objective {
	return core.NewSupervisedObjective(split)
}

// NewSystem assembles a Lumos deployment over graph g. For supervised
// training pass full == g; for link prediction pass the training subgraph
// as g and the complete graph as full.
func NewSystem(g, full *graph.Graph, cfg Config) (*System, error) {
	return core.NewSystem(g, full, cfg)
}

// Scenario simulation and gossip (see the package documentation).
type (
	// SimScenario configures one simulated deployment: fleet, churn,
	// partial participation, rounds, cost model, topology, seed.
	SimScenario = sim.Scenario
	// SimResult is a finished simulation: timeline plus summary metrics
	// (wall-clock, wire bytes, fleet energy).
	SimResult = sim.Result
	// Topology is a peer contact graph: which devices exchange model deltas
	// directly under SchedGossip (SimScenario.Topology).
	Topology = topo.Topology
)

// Fleet values used by the examples: a zipf-skewed synthetic fleet, and a
// fleet read from SimScenario.Trace.
const (
	FleetZipf  = sim.FleetZipf
	FleetTrace = sim.FleetTrace
)

// SampleTrace synthesizes a representative mixed device population — the
// trace lumos-datagen -traces writes — deterministically from the seed.
func SampleTrace(devices int, seed int64) (*fleet.Trace, error) {
	return fleet.SampleTrace(devices, seed)
}

// DefaultCostModel returns the per-event costs a SimScenario uses when its
// Cost is left zero; set AggBytesPerSecond on a copy to give the aggregator
// a finite shared link.
func DefaultCostModel() fed.CostModel { return fed.DefaultCostModel() }

// NewSimulator prepares a discrete-event simulation of scenario sc over an
// assembled system (build it with Config.Shards == device count for exact
// per-device participation).
func NewSimulator(sys *System, sc SimScenario) (*sim.Simulator, error) {
	return sim.New(sys, sc)
}

// ParseTopologySpec parses a topology spec ("ring:<k>", "k-regular:<k>",
// "ba:<m>", "complete", or "file:<path>"); Build instantiates it for a
// device count and seed.
func ParseTopologySpec(s string) (topo.Spec, error) { return topo.ParseSpec(s) }

// Snapshots and serving (see the package documentation).
type (
	// SnapshotMeta describes a snapshot (version, task, dataset, metric…).
	SnapshotMeta = snapshot.Meta
	// Server answers classification and link-scoring queries from the
	// currently-published bundle, hot-swapping atomically on republish.
	Server = serve.Server
	// ServeOptions tunes a Server's query batching.
	ServeOptions = serve.Options
)

// CaptureSnapshot freezes a trained system into a snapshot; training may
// continue afterwards without mutating the capture.
func CaptureSnapshot(sys *System, meta SnapshotMeta) (*snapshot.Snapshot, error) {
	return snapshot.Capture(sys, meta)
}

// PublishSnapshot atomically writes the snapshot to path with the next
// version after the one currently published there, and returns it.
func PublishSnapshot(path string, s *snapshot.Snapshot) (uint64, error) {
	return snapshot.PublishNext(path, s)
}

// NewServer builds a serving replica and starts its batching worker.
func NewServer(opt ServeOptions) *Server { return serve.New(opt) }

// ExperimentOptions scales the paper's evaluation suite.
type ExperimentOptions = eval.Options

// RunFig7 reproduces Fig. 7: the per-device workload distribution with and
// without tree trimming. lumos-bench runs it with the other figures.
func RunFig7(opts ExperimentOptions) ([]eval.Fig7Result, error) { return eval.RunFig7(opts) }
