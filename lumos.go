// Package lumos is the public API of this repository: a from-scratch Go
// implementation of "Lumos: Heterogeneity-aware Federated Graph Learning
// over Decentralized Devices" (Pan, Zhu, Chu — ICDE 2023), together with
// every substrate it needs (dense tensors with reverse-mode autodiff, GCN
// and GAT layers, an LDP toolkit, a simulated secure two-party comparison
// protocol, a federated device/network simulator) and the paper's three
// comparison systems.
//
// The package re-exports the library's main entry points; the
// implementation lives under internal/. Quick start:
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
// The API mirrors that. An Objective encapsulates everything task-specific
// — the loss built from the pooled embeddings (cross-entropy over a
// NodeSplit, or negative-sampled logistic loss over an EdgeSplit), the
// per-epoch RNG-driven sampling behind it, the validation/test metric, and
// the task's wire-traffic accounting. A Session binds one objective to an
// assembled System and drives training either by full-participation epochs
// (Step) or round-by-round under a participation mask, gradient delays, and
// cache TTL (StepRound with a RoundPlan):
//
//	obj := lumos.NewUnsupervisedObjective(edges)
//	sess, _ := sys.NewSession(obj)
//	for epoch := 0; epoch < 60; epoch++ {
//		sess.Step()
//	}
//	sess.FinishRounds()
//	stats := sess.Stats()
//
// TrainSupervised and TrainUnsupervised are thin loops over a session, and
// every other runner — the discrete-event simulator, the eval timelines,
// the CLIs' -task flags (ParseTask) — drives sessions too, so any new
// surface works for every objective without per-task plumbing.
//
// # Device-parallel training
//
// Training runs on a device-parallel engine: the forest of per-device trees
// is partitioned into Config.Shards contiguous shards (default: min(N, 32),
// balanced by tree size), and each epoch's local forward/backward passes
// execute on a worker pool of Config.Workers goroutines (default: one per
// CPU). Shard gradients are combined by a deterministic tree-ordered
// reduction, and every shard owns a private RNG stream split from
// Config.Seed, so the engine guarantees: with a fixed seed, losses and
// trained weights are bit-identical for every Workers value. Workers is
// purely a wall-clock knob.
//
// What a shard hands the serial combine is what its devices push in the
// protocol (POOL, Eq. 31): one pooled embedding row per distinct vertex its
// leaves stand for, not a vertex-count-sized matrix. The combine scatter-adds
// those rows onto their vertices in fixed shard order
// (autodiff.ScatterAddN), its backward gathers each shard's rows of the
// loss gradient, and the stale-partial cache that serves absent devices in
// partial-participation rounds holds the same rows — so at one device per
// shard (the simulator's setting) a round's combine, cut gradients and cache
// cost Σ leaves·OutDim, not shards·N·OutDim. The sums run in the order the
// dense combine used, so results are bit-identical to it (internal/core
// TestSparsePartialsMatchDenseOracle keeps it as the oracle).
//
// A training step combines only the pooled rows its loss reads: the
// objective names them (node classification reads the present training
// vertices, link prediction all N), and the engine sums just the shard rows
// holding those vertices, then runs the head and loss over those rows alone.
// A gossip device's local step thus combines and scores one row — its own —
// instead of N, with bit-identical results (TestLossRowsMatchDenseCombine
// keeps the all-rows, zero-weighted combine as the oracle).
//
// # Tape-based autodiff
//
// The differentiation substrate underneath the engine is a tape
// (internal/autodiff.Tape): each shard records its epoch graph onto a
// private tape in construction order, so backward is a reverse linear sweep
// with no topological sort, and Tape.Reset recycles every node, output,
// gradient, and scratch buffer through a shape-keyed free-list instead of
// dropping them to the garbage collector. Because training runs thousands
// of structurally identical epochs over a fixed forest, steady-state epochs
// are essentially allocation-free: the serial epoch benchmark dropped from
// ~5.8k allocations and ~200 MB allocated per epoch to ~114 allocations and
// ~29 KB, and per-epoch wall time fell ~1.6×. The tape is the only way a
// graph records: the engine's shard passes, its serial combine, its
// evaluation forwards and the comparison baselines of Figs. 3–4 all run on
// tapes, so every compared system differentiates through the same code.
// Parameters are the only values off any tape; their gradients recycle
// their buffers in place across ZeroGrad/backward cycles. The fresh-tape
// behaviour recycled tapes replaced survives as a test reference
// (internal/core TestTapeReuseMatchesFreshTapes drops the engine's tapes
// before every epoch and requires bit-identical loss traces), and
// allocation-budget tests in CI keep the steady state honest.
//
// # Hardware-fast kernels
//
// With allocations gone, epoch cost is pure FLOPs, so the tensor kernels
// under the tape are register-blocked for cache locality and
// instruction-level parallelism: matmuls pack 256×8 B-panels and run 8
// independent accumulator chains per output row, the backward (NT/TN)
// kernels unroll across 4 rows, and the GCN/GAT neighborhood aggregation
// (gather source rows, scale by edge coefficient or attention weight, sum
// per destination — plus the engine's leaf pooling) runs as single
// CSR-driven ops that never materialize per-edge message matrices —
// forward or backward. None of this changes any floating-point summation
// order: every output entry still sums its reduction index ascending, so
// golden loss traces are bit-identical to the scalar loops they were
// recorded on. On the 1-CPU CI box this cut the serial GCN epoch ~70.6 →
// ~44 ms (≈1.6×, see BENCH_epoch.json for the committed numbers) and the
// fused aggregation runs ~5× faster than the unfused chain with ~16× less
// garbage, with the ≤250 allocs/epoch budget unchanged. There is one
// implementation of each kernel and nothing selects between them. What
// they replaced lives on only as test oracles: the scalar matmul loops in
// internal/tensor/kernels_test.go and the unfused three-op aggregation
// chain in internal/autodiff/csr_test.go, each compared bit for bit against
// the production kernel over randomized shapes and graphs.
//
// Config.Sched selects the round schedule. SchedSync (default) is the
// paper's lockstep protocol: every epoch aggregates all gradients and waits
// for the straggler. SchedAsync simulates staleness-bounded asynchronous
// aggregation: the heaviest (straggler) shards apply their gradients up to
// Config.Staleness epochs late, and the system-cost model amortizes their
// compute accordingly, so TrainStats.SimEpochTime reflects the freed
// barrier. Async schedules derive deterministically from the workload
// ranking — reruns reproduce bit-for-bit there too.
//
// # Scenario simulation (internal/sim)
//
// Beyond the analytic cost model, internal/sim provides a deterministic
// discrete-event device-network simulator: a virtual clock orders
// compute-done, message-arrival, and device join/leave events; per-device
// profiles drawn from the fleet layer (see "Device fleets") scale the cost
// model's compute, bandwidth, latency, and power terms; and a SimScenario
// layers churn, per-round partial participation, and staleness-bounded
// catch-up on top. Each committed round drives a real training Session
// through Session.StepRound — absent devices' shards are skipped (their
// vertices serve cached embeddings until the cache ages out) and late
// updates apply stale through the engine's delayed-gradient queue — so the
// simulated timeline carries true losses and evaluation metrics alongside
// simulated wall-clock, wire bytes, and fleet energy. The simulator is
// task-agnostic: Simulator.Run takes any Objective, so
// churn/partial-participation/async scenarios work for link prediction
// exactly as for node classification, and SimScenario.ModelSelection adds
// round-driven model selection (RoundPlan.Evaluate keeps the best
// validation snapshot). The same seed and scenario reproduce the identical
// timeline for every Workers value. Entry points: NewSimulator /
// SimScenario here, the lumos-sim CLI (-task supervised|unsupervised), the
// examples/churnstudy and examples/energystudy walkthroughs, and the
// RunSimTimeline experiment runner.
//
// # Topologies and gossip (internal/topo)
//
// SchedGossip drops the aggregator entirely: training runs decentralized
// over a peer contact graph (internal/topo). Each device keeps a private
// model replica; every round the participants run their local step, push
// model deltas to their topology neighbors over per-link queues paced by
// the bottleneck of the two endpoints' bandwidths
// (CostModel.LinkBytesPerSecond, processor-sharing by default —
// SimScenario.LinkDiscipline selects "ps" or "fifo"), and average with
// whichever neighbors participated this round under Metropolis–Hastings
// weights w(d,j) = 1/(1+max(deg d, deg j)). The weight matrix is symmetric
// and doubly stochastic from local degree knowledge alone, so on the
// complete topology with full participation it degenerates to the uniform
// 1/n average — the bridge back to the star aggregator that the
// gossip-vs-star equivalence test pins. Replica mixing averages Adam's
// moments alongside the weights (MixReplicas / nn.MixOptStatesInto): without
// moment averaging, per-device sign-normalized Adam steps cancel in the
// consensus mean and decentralized training stalls. Every replica owns its
// weight and moment buffers; load, store and mix copy into them, so a
// steady-state gossip round allocates nothing for replicas. A device's local
// step reads its own pooled row: its own fresh partial plus the partials its
// graph neighbours last pushed under their own replicas.
//
// Topologies come from deterministic seeded generators — TopologyRing,
// TopologyKRegular, TopologyBarabasiAlbert, TopologyComplete — or from a
// contact-graph file (LoadTopology; CSV "u,v" edge rows or a JSON edge
// list, mirroring fleet.Trace's on-disk conventions, with a lossless
// round-trip). ParseTopologySpec parses the CLI spec grammar
// ("ring:<k>", "k-regular:<k>", "ba:<m>", "complete", "file:<path>") that
// lumos-sim -topology and the eval timelines accept. Gossip rounds carry
// O(degree) uploads per device, so radio energy grows with the contact
// graph's edge count — examples/topologystudy plays the same fleet over a
// ring, a k-regular graph, and a scale-free graph and checks every
// topology lands within 5% of the star-synchronous final at equal rounds.
// The gossip timeline obeys the same determinism contract as everything
// else: frozen reduction orders end to end, so same-seed runs are
// bit-identical for every Workers value.
//
// Independent of the schedule, SimScenario.Policy selects how the
// simulator narrows the available set before each round's participation
// sample: "uniform" (default) admits everyone, "energy"
// (lumos-sim -participation-policy energy) admits only devices whose
// projected per-round energy — compute at profile power plus radio bytes,
// O(degree) under gossip — fits the per-round budget
// (SimScenario.EnergyBudget, default: the fleet mean, so the policy always
// bites the straggler tail), keeping the cheapest device when the budget
// would empty a round.
//
// # Device fleets (internal/fleet)
//
// The device population behind every simulation comes from internal/fleet,
// the single source of device-population truth. A SimProfile carries one
// device's capacity relative to the cost model's nominal device — compute,
// bandwidth, latency, and power multipliers plus an optional periodic
// availability cycle — and a FleetSource turns a population description
// into n profiles, deterministically from a seed. Synthetic fleets cover
// uniform (nominal everything), zipf (heavy straggler tail), and periodic
// (diurnal on/off cycles); the trace fleet loads per-device records from a
// FedScale-style CSV or JSON file instead (LoadTrace, lumos-sim -fleet
// trace:<path>), sampling deterministically when the simulated fleet is
// larger than the trace. Naming the trace fleet without a trace source is
// an error — there is no silent synthetic fallback. SampleTrace synthesizes
// a representative mixed population (lumos-datagen -traces writes it to
// disk), so tests and smoke suites never depend on external downloads.
//
// Two deployment realities ride on the fleet layer. Aggregator contention:
// with CostModel.AggBytesPerSecond set (lumos-sim -agg-capacity), device
// uploads and post-commit model broadcasts serialize through a
// deterministic M/G/1-style FIFO server at the aggregator, so large-fleet
// commit times reflect queueing at the shared link rather than independent
// links; zero capacity reproduces the independent-link timeline bit for
// bit. Energy accounting: every round charges each participant
// compute-seconds × (CostModel.DevicePowerWatts × profile power) plus
// radio bytes × CostModel.RadioEnergyPerByte, surfacing per-round fleet
// joules in SimRoundStats.Energy, cumulative and per-device totals in
// SimResult, and the energy/metric trade-off study in examples/energystudy.
//
// # Snapshots and serving
//
// Trained models leave the training process through versioned snapshots
// (internal/snapshot) and come back to life in serving replicas
// (internal/serve), closing the train→publish→serve loop:
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
// A snapshot carries metadata (task, backbone, dataset, seed, round,
// metric), the encoder and head weights through the hardened length-checked
// checkpoint codec, and the per-device tree state, all under a CRC-32
// trailer — truncation, bit flips, bad magic, and oversized length fields
// fail loudly at decode time with bounded allocation. Publishing is atomic
// (temp file + fsync + rename) and PublishSnapshot auto-increments the
// version, so a watcher polling the file sees either the old complete
// snapshot or the new one, never a torn write.
//
// Because a snapshot pins the training shard partition, the rebuilt
// inference system reproduces the training system's floating-point
// reduction order exactly: every served class and link score is
// bit-identical to what EvaluateAccuracy / EvaluateAUC computed in the
// training process. The serving replica batches queries against an
// immutable bundle (embedding cache + precomputed predictions) behind an
// atomic pointer; hot swaps are lock-free, reject stale versions, and each
// answer names the snapshot version it came from. Entry points: the
// lumos-serve CLI (HTTP: /healthz, /v1/info, /v1/classify, /v1/score),
// lumos-train -publish, and the examples/servequickstart walkthrough; the
// bench/ harness measures the whole train→publish→serve loop.
//
// # Observability (internal/obs)
//
// Every layer is instrumented through internal/obs, a dependency-free
// telemetry substrate with two design rules. First, disabled telemetry is
// free: Config.Metrics and Config.Tracer default to nil, every instrument
// method no-ops on a nil receiver, and the nil path is bit-and-allocation
// identical to an uninstrumented build (the allocation-budget and golden
// loss-trace tests in CI pin this). Second, the hot path never allocates:
// counters and gauges are single atomics, histograms are fixed-bucket
// atomic arrays, and rendering snapshots them only at scrape time.
//
//	reg := lumos.NewMetricsRegistry()
//	sys, _ := lumos.NewSystem(g, g, lumos.Config{Metrics: reg, Tracer: lumos.NewEventTracer()})
//	// ... train ...
//	reg.WritePrometheus(os.Stdout) // text exposition format 0.0.4
//
// A MetricsRegistry exports Prometheus text (training: lumos_train_* step
// counters, loss and queue-depth gauges, step-time histogram; simulation:
// lumos_sim_* rounds, bytes, energy, aggregator queueing; serving:
// lumos_serve_* per-endpoint latency and batch-size histograms, swap count,
// serving snapshot version). An EventTracer records spans and instants —
// epochs, rounds, device compute/upload, aggregator serving, snapshot
// publishes, batch drains, hot swaps — and writes them as Chrome
// trace-event JSON viewable in Perfetto (ui.perfetto.dev) or as JSONL.
// Training and serving trace on the wall clock (NewEventTracer); the
// simulator traces on its virtual clock (NewVirtualEventTracer via
// SimScenario.Tracer), and the two never mix in one file. Surfaces:
// lumos-serve GET /metrics (plus -log request logging and -pprof),
// and lumos-sim/lumos-train -trace, -metrics, and -metrics-out.
//
// # Run records and reports (internal/report)
//
// The write-only telemetry above gets its analysis half in internal/report:
// recorded, diffable run artifacts plus trace analytics. Passing
// -run-out <dir> to lumos-sim or lumos-train records the run as a
// directory — manifest.json (the full CLI args, seed, fleet, topology,
// go version, and GOMAXPROCS needed to reproduce it, plus the
// final metric/wall-clock/bytes/energy summary), rounds.jsonl (one row per
// committed round, streamed as rounds commit via SimScenario.RoundObserver
// so a killed run keeps its prefix), and metrics.prom (the final Prometheus
// scrape). WriteRunRecord and LoadRunRecord are the programmatic read/write
// pair (a RunRecord round-trips losslessly; a truncated rounds.jsonl tail
// loads with a warning), and AnalyzeTrace turns a simulator trace — live
// events or a file loaded back with ReadTraceEvents — into per-round
// CriticalPath chains (device-compute → upload → agg-queue, or per-link
// gossip delta, ending at the round's commit), per-device
// utilization/idle/queue-wait fractions, and a top-k straggler-blame table,
// for sync, async, and gossip schedules alike.
//
// The lumos-report CLI is the human surface: `lumos-report run <dir>`
// renders a record as tables (or markdown with -md), `lumos-report trace
// <file> -critical-path` analyzes a trace standalone, and `lumos-report
// diff <baseline> <candidate>` compares two records under configurable
// thresholds and exits nonzero on regression — a CI-able A/B gate
// (scripts/ci.sh runs a record → report → self-diff round trip, and the
// perf PRs' A/B comparisons build on it). Disabled recording is free: no
// -run-out means a nil observer, and the goldens plus the allocation
// budget pin that path.
package lumos

import (
	"math/rand"

	"lumos/internal/core"
	"lumos/internal/eval"
	"lumos/internal/fleet"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/report"
	"lumos/internal/serve"
	"lumos/internal/sim"
	"lumos/internal/snapshot"
	"lumos/internal/topo"
)

// Graph and dataset handling.
type (
	// Graph is an undirected attributed graph; vertex v is device v.
	Graph = graph.Graph
	// GenConfig parameterizes the synthetic social-graph generator.
	GenConfig = graph.GenConfig
	// EgoNet is a device's complete local view.
	EgoNet = graph.EgoNet
	// NodeSplit is a train/val/test vertex partition.
	NodeSplit = graph.NodeSplit
	// EdgeSplit is a train/val/test edge partition with negative samples.
	EdgeSplit = graph.EdgeSplit
)

// Generate produces a synthetic attributed social graph.
func Generate(cfg GenConfig) (*Graph, error) { return graph.Generate(cfg) }

// FacebookLike returns the Facebook page-page stand-in at the given scale.
func FacebookLike(scale float64, seed int64) (*Graph, error) {
	return graph.FacebookLike(scale, seed)
}

// LastFMLike returns the LastFM Asia stand-in at the given scale.
func LastFMLike(scale float64, seed int64) (*Graph, error) {
	return graph.LastFMLike(scale, seed)
}

// SplitNodes partitions vertices for supervised learning (paper: 50/25/25).
func SplitNodes(g *Graph, trainFrac, valFrac float64, rng *rand.Rand) (*NodeSplit, error) {
	return graph.SplitNodes(g, trainFrac, valFrac, rng)
}

// SplitEdges partitions edges for link prediction (paper: 80/5/15).
func SplitEdges(g *Graph, trainFrac, valFrac float64, rng *rand.Rand) (*EdgeSplit, error) {
	return graph.SplitEdges(g, trainFrac, valFrac, rng)
}

// Model selection.
type (
	// Backbone selects the GNN layer family.
	Backbone = nn.Backbone
)

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
	// Task selects supervised or unsupervised training.
	Task = core.Task
	// Sched selects synchronous or staleness-bounded asynchronous round
	// scheduling (see the package documentation).
	Sched = core.Sched
	// System is an assembled Lumos deployment.
	System = core.System
	// Objective encapsulates everything task-specific about training (see
	// the package documentation).
	Objective = core.Objective
	// Session is one training run of an Objective over a System, driven by
	// epochs (Step) or rounds (StepRound).
	Session = core.Session
	// RoundPlan describes one partial-participation round for
	// Session.StepRound.
	RoundPlan = core.RoundPlan
	// TrainStats reports losses, per-epoch traffic, and the Fig. 8 cost
	// metrics of a training run.
	TrainStats = core.TrainStats
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

// ParseSched parses a scheduling-mode name ("sync", "async", or "gossip").
func ParseSched(name string) (Sched, error) { return core.ParseSched(name) }

// ParseTask parses a task name ("supervised" or "unsupervised").
func ParseTask(name string) (Task, error) { return core.ParseTask(name) }

// NewSupervisedObjective builds the node-classification objective over a
// train/val/test vertex split.
func NewSupervisedObjective(split *NodeSplit) Objective {
	return core.NewSupervisedObjective(split)
}

// NewUnsupervisedObjective builds the link-prediction objective; val may be
// nil when no validation/test edges exist.
func NewUnsupervisedObjective(val *EdgeSplit) Objective {
	return core.NewUnsupervisedObjective(val)
}

// NewSystem assembles a Lumos deployment over graph g. For supervised
// training pass full == g; for link prediction pass the training subgraph
// as g and the complete graph as full.
func NewSystem(g, full *Graph, cfg Config) (*System, error) {
	return core.NewSystem(g, full, cfg)
}

// Scenario simulation (see the package documentation).
type (
	// SimScenario configures one simulated deployment: fleet, churn,
	// partial participation, rounds, cost model, seed.
	SimScenario = sim.Scenario
	// SimProfile is one device's capacity relative to the nominal device:
	// compute/bandwidth/latency/power multipliers plus an optional
	// availability cycle (defined in internal/fleet).
	SimProfile = sim.Profile
	// Simulator advances a scenario over an assembled System.
	Simulator = sim.Simulator
	// SimResult is a finished simulation: timeline plus summary metrics
	// (wall-clock, wire bytes, fleet energy).
	SimResult = sim.Result
	// SimRoundStats is one entry of a simulated timeline.
	SimRoundStats = sim.RoundStats
	// Fleet names a device-profile distribution.
	Fleet = sim.Fleet
	// FleetSource turns a device-population description into concrete
	// profiles — the interface every fleet (synthetic or trace-driven)
	// implements, and SimScenario's single construction path.
	FleetSource = fleet.Fleet
	// Trace is a device-population trace loaded from a FedScale-style
	// CSV/JSON file (or synthesized by SampleTrace); it implements
	// FleetSource and feeds SimScenario.Trace.
	Trace = fleet.Trace
	// RoundOutcome reports one partial-participation training round.
	RoundOutcome = core.RoundOutcome
)

// Fleet values.
const (
	FleetUniform  = sim.FleetUniform
	FleetZipf     = sim.FleetZipf
	FleetPeriodic = sim.FleetPeriodic
	FleetTrace    = sim.FleetTrace
)

// ParseFleet parses a fleet name ("uniform", "zipf", "periodic", or
// "trace"; the trace fleet additionally needs a trace source).
func ParseFleet(name string) (Fleet, error) { return sim.ParseFleet(name) }

// ParseFleetSpec parses a CLI fleet spec, which extends the fleet names
// with the "trace:<path>" form naming a trace file to load.
func ParseFleetSpec(spec string) (Fleet, string, error) { return sim.ParseFleetSpec(spec) }

// LoadTrace reads a fleet trace from a CSV (.csv) or JSON (.json) file.
func LoadTrace(path string) (*Trace, error) { return fleet.LoadTrace(path) }

// SampleTrace synthesizes a representative mixed device population — the
// trace lumos-datagen -traces writes — deterministically from the seed.
func SampleTrace(devices int, seed int64) (*Trace, error) {
	return fleet.SampleTrace(devices, seed)
}

// NewSimulator prepares a discrete-event simulation of scenario sc over an
// assembled system (build it with Config.Shards == device count for exact
// per-device participation).
func NewSimulator(sys *System, sc SimScenario) (*Simulator, error) {
	return sim.New(sys, sc)
}

// Topologies and gossip (see the package documentation).
type (
	// Topology is a peer contact graph: which devices exchange model deltas
	// directly under SchedGossip (SimScenario.Topology).
	Topology = topo.Topology
	// TopologySpec is a parsed topology description ("ring:<k>",
	// "k-regular:<k>", "ba:<m>", "complete", "file:<path>"); Build
	// instantiates it for a device count and seed.
	TopologySpec = topo.Spec
	// SimPolicy names a participation policy — how the simulator narrows
	// the available set before each round's sample.
	SimPolicy = sim.Policy
	// LinkDiscipline selects a queueing discipline for gossip's per-link
	// servers (and any fleet.Server): FIFO or egalitarian processor
	// sharing.
	LinkDiscipline = fleet.Discipline
)

// Participation policies.
const (
	PolicyUniform = sim.PolicyUniform
	PolicyEnergy  = sim.PolicyEnergy
)

// Link queueing disciplines.
const (
	DiscFIFO = fleet.DiscFIFO
	DiscPS   = fleet.DiscPS
)

// ParseTopologySpec parses a topology spec ("ring:<k>", "k-regular:<k>",
// "ba:<m>", "complete", or "file:<path>") — the grammar behind
// lumos-sim -topology.
func ParseTopologySpec(s string) (TopologySpec, error) { return topo.ParseSpec(s) }

// ParsePolicy parses a participation-policy name ("uniform" or "energy";
// "" means uniform).
func ParsePolicy(s string) (SimPolicy, error) { return sim.ParsePolicy(s) }

// ParseDiscipline parses a queueing-discipline name ("fifo" or "ps").
func ParseDiscipline(s string) (LinkDiscipline, error) { return fleet.ParseDiscipline(s) }

// TopologyRing returns the ring lattice where each device contacts its k
// nearest neighbors on a cycle (k even).
func TopologyRing(n, k int) (*Topology, error) { return topo.Ring(n, k) }

// TopologyKRegular returns a connected random k-regular contact graph,
// deterministically from the seed.
func TopologyKRegular(n, k int, seed int64) (*Topology, error) { return topo.KRegular(n, k, seed) }

// TopologyBarabasiAlbert returns a scale-free Barabási–Albert contact
// graph (m attachments per arriving device), deterministically from the
// seed.
func TopologyBarabasiAlbert(n, m int, seed int64) (*Topology, error) {
	return topo.BarabasiAlbert(n, m, seed)
}

// TopologyComplete returns the all-pairs contact graph — gossip's bridge
// back to the star aggregator.
func TopologyComplete(n int) (*Topology, error) { return topo.Complete(n) }

// LoadTopology reads a contact graph from a CSV (.csv) or JSON (.json)
// edge-list file; see internal/topo/file.go for the schema.
func LoadTopology(path string) (*Topology, error) { return topo.Load(path) }

// Snapshots and serving (see the package documentation).
type (
	// Snapshot is a captured model: metadata, architecture, weights, and
	// the per-device tree state a serving replica needs.
	Snapshot = snapshot.Snapshot
	// SnapshotMeta describes a snapshot (version, task, dataset, metric…).
	SnapshotMeta = snapshot.Meta
	// Server answers classification and link-scoring queries from the
	// currently-published bundle, hot-swapping atomically on republish.
	Server = serve.Server
	// ServeOptions tunes a Server's query batching.
	ServeOptions = serve.Options
	// ServeBundle is one immutable snapshot prepared for serving.
	ServeBundle = serve.Bundle
)

// CaptureSnapshot freezes a trained system into a snapshot; training may
// continue afterwards without mutating the capture.
func CaptureSnapshot(sys *System, meta SnapshotMeta) (*Snapshot, error) {
	return snapshot.Capture(sys, meta)
}

// ReadSnapshot loads and fully verifies the snapshot file at path.
func ReadSnapshot(path string) (*Snapshot, error) { return snapshot.Read(path) }

// WriteSnapshot publishes a snapshot to path atomically (temp + fsync +
// rename) at whatever version its metadata carries.
func WriteSnapshot(path string, s *Snapshot) error { return snapshot.Write(path, s) }

// PublishSnapshot atomically writes the snapshot to path with the next
// version after the one currently published there, and returns it.
func PublishSnapshot(path string, s *Snapshot) (uint64, error) {
	return snapshot.PublishNext(path, s)
}

// PeekSnapshotVersion reads just the version from a snapshot file header —
// the cheap staleness check watchers use before a full read.
func PeekSnapshotVersion(path string) (uint64, error) { return snapshot.PeekVersion(path) }

// NewServer builds a serving replica and starts its batching worker.
func NewServer(opt ServeOptions) *Server { return serve.New(opt) }

// NewServeBundle prepares a decoded snapshot for serving: it rebuilds the
// inference system and materializes the embedding cache and predictions,
// bit-identical to the training process's own evaluation.
func NewServeBundle(s *Snapshot) (*ServeBundle, error) { return serve.NewBundle(s) }

// Observability (see the package documentation).
type (
	// MetricsRegistry holds named atomic counters, gauges, and fixed-bucket
	// histograms and renders them in Prometheus text format. A nil registry
	// (the Config default) disables metrics entirely and costs nothing.
	MetricsRegistry = obs.Registry
	// EventTracer records spans and instants and writes Chrome trace-event
	// JSON (viewable in Perfetto) or JSONL. A nil tracer is a no-op.
	EventTracer = obs.Tracer
	// MetricsHistogram is one fixed-bucket histogram instrument; exported so
	// embedders can attach their own (e.g. fleet.Server.Wait).
	MetricsHistogram = obs.Histogram
	// TraceEvent is one recorded trace event in Chrome trace-event shape.
	TraceEvent = obs.Event
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewEventTracer builds a wall-clock tracer: Now() is seconds since
// creation. Use it for Config.Tracer in real training and serving.
func NewEventTracer() *EventTracer { return obs.NewTracer() }

// NewVirtualEventTracer builds a tracer for simulated time: callers supply
// event timestamps in simulated seconds (SimScenario.Tracer). Simulator
// runs are single-threaded, so its traces are byte-reproducible per seed.
func NewVirtualEventTracer() *EventTracer { return obs.NewVirtualTracer() }

// ParsePrometheus parses Prometheus text exposition into a flat
// name→value map — the scrape side of MetricsRegistry.WritePrometheus.
func ParsePrometheus(text string) (map[string]float64, error) {
	return obs.ParsePrometheus(text)
}

// Run records and reports (see the package documentation).
type (
	// RunRecord is a fully loaded run-record directory: manifest, per-round
	// rows, and the final metrics scrape.
	RunRecord = report.RunRecord
	// RunManifest identifies and summarizes a recorded run — the arguments,
	// seed, and environment needed to reproduce it plus the headline
	// results.
	RunManifest = report.Manifest
	// RunRoundRow is one committed round's recorded statistics.
	RunRoundRow = report.RoundRow
	// TraceAnalysis is the analyzer's verdict on a simulator trace:
	// per-round critical paths, per-device utilization, and the
	// straggler-blame table.
	TraceAnalysis = report.TraceAnalysis
	// CriticalPath is the chain of spans one round's commit waited on.
	CriticalPath = report.CriticalPath
)

// WriteRunRecord writes a complete run record to dir in one shot —
// the non-streaming counterpart of lumos-sim/lumos-train -run-out.
func WriteRunRecord(dir string, rec *RunRecord) error {
	return report.WriteRunRecord(dir, rec)
}

// LoadRunRecord reads a run-record directory back. A truncated final
// rounds.jsonl row (a killed run) is dropped with a warning rather than an
// error; warnings list everything tolerated.
func LoadRunRecord(dir string) (*RunRecord, []string, error) {
	return report.LoadRunRecord(dir)
}

// AnalyzeTrace computes critical paths, device utilization, and the top-k
// straggler-blame table from a simulator trace's events (live from an
// EventTracer or loaded back with ReadTraceEvents).
func AnalyzeTrace(events []TraceEvent, topK int) (*TraceAnalysis, error) {
	return report.AnalyzeTrace(events, topK)
}

// ReadTraceEvents loads trace events back from a file written by
// EventTracer.WriteFile, auto-detecting Chrome JSON vs JSONL by extension.
func ReadTraceEvents(path string) ([]TraceEvent, error) {
	return obs.ReadEventsFile(path)
}

// Experiment harness (one runner per paper figure).
type (
	// ExperimentOptions scales the reproduction suite.
	ExperimentOptions = eval.Options
	// ResultTable is a rendered experiment result.
	ResultTable = eval.Table
)

// Experiment runners, one per paper artifact, plus the scenario-simulation
// runner (RunSimTimeline replaces the single-number Fig. 8 cost estimate
// with a simulated per-round timeline under both scheduling disciplines).
var (
	RunFig3        = eval.RunFig3
	RunFig4        = eval.RunFig4
	RunFig5        = eval.RunFig5
	RunFig6        = eval.RunFig6
	RunFig7        = eval.RunFig7
	RunFig8        = eval.RunFig8
	RunHeadline    = eval.RunHeadline
	RunSimTimeline = eval.RunSimTimeline
)
