package main

import (
	"lumos/internal/core"
	"lumos/internal/nn"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the lap counts below are
// sized for it, and -seconds scales them in proportion.
const nominalSeconds = 22

// dataSeed generates every workload's graph, split, model and fleet. The
// contract's -seed drives only the query stream: tree construction time on
// another graph of the same size differs by ±30 % (MCMC path, number of
// secure comparisons), more than any bound below could absorb, so the
// trained system is the same on every run and -dataseed is the way to try
// another one.
const dataSeed = 7

type trainer int

const (
	trainEpochs trainer = iota // core.Session.Step, full participation
	trainSim                   // sim.Simulator.Run
)

type serveKind int

const (
	serveHTTPClassify   serveKind = iota // POST /v1/classify, batch nodes per request
	serveHTTPScore                       // POST /v1/score, batch pairs per request
	serveInprocClassify                  // goroutines calling Server.Classify
	serveHTTPMixedSwap                   // 70/30 classify/score under a republishing publisher
)

// workload is one row of the benchmark: a dataset, a training discipline and
// a serving shape. Rounds are per pass; one lap is construct → pass →
// publishes → queries, and a run makes `laps` of them.
type workload struct {
	name string
	why  string

	dataset  string
	scale    float64
	task     core.Task
	backbone nn.Backbone
	secure   bool
	mcmc     int
	lr       float64 // 0 = the paper's 0.01

	trainer   trainer
	sched     core.Sched
	staleness int
	rounds    int
	laps      int

	// Simulator scenario (trainSim only).
	churn, participation float64
	aggBytesPerSecond    float64
	topology             string

	serve           serveKind
	clients         int // closed-loop clients
	batch           int // nodes or pairs per request
	queriesPerLap   int
	publishesPerLap int // timed cycles; one more, untimed, precedes them

	// metricFloor is 0.9× the lowest final_metric measured over data seeds
	// 3, 7 and 11; a run below it fails its output check.
	metricFloor float64
}

var workloads = []workload{
	{
		name:    "epoch-gcn-secure",
		why:     "dense tensor/autodiff/nn work is the round, smc is the construct time; serving is one node per HTTP request, where the batcher's 2 ms BatchWait is the latency",
		dataset: "facebook", scale: 0.025, task: core.Supervised, backbone: nn.GCN,
		secure: true, mcmc: 100,
		trainer: trainEpochs, rounds: 26, laps: 6,
		serve: serveHTTPClassify, clients: 2, batch: 1, queriesPerLap: 600, publishesPerLap: 2,
		metricFloor: 0.76,
	},
	{
		name:    "epoch-gat-linkpred",
		why:     "attention, segment softmax, CSR aggregation and pair sampling are the round, plain-MCMC balance is the construct time; serving scores 64 pairs per HTTP request (JSON + RowDot)",
		dataset: "lastfm", scale: 0.04, task: core.Unsupervised, backbone: nn.GAT,
		mcmc:    300,
		trainer: trainEpochs, rounds: 10, laps: 5,
		serve: serveHTTPScore, clients: 2, batch: 64, queriesPerLap: 800, publishesPerLap: 2,
		metricFloor: 0.57,
	},
	{
		name:    "sim-async-churn",
		why:     "per-shard and event-loop overhead (sim, fleet, core scheduling) is the round, kernels are not; 64 in-process callers fill MaxBatch so the batcher itself is measured",
		dataset: "facebook", scale: 0.02, task: core.Supervised, backbone: nn.GCN,
		mcmc:    150,
		trainer: trainSim, sched: core.SchedAsync, staleness: 2, rounds: 40, laps: 8,
		churn: 0.2, participation: 0.5, aggBytesPerSecond: 2e6,
		serve: serveInprocClassify, clients: 64, batch: 1, queriesPerLap: 150000, publishesPerLap: 2,
		metricFloor: 0.76,
	},
	{
		name:    "gossip-ba-swap",
		why:     "core.Replica load/store/mix, nn.MixOptStates and per-link fleet.Server queues are the round; serving is a 70/30 classify/score HTTP mix while a publisher republishes and swaps every 500 ms",
		dataset: "facebook", scale: 0.008, task: core.Supervised, backbone: nn.GCN,
		mcmc: 150, lr: 0.1,
		trainer: trainSim, sched: core.SchedGossip, rounds: 40, laps: 5,
		churn: 0.05, participation: 1, topology: "ba:3",
		serve: serveHTTPMixedSwap, clients: 2, batch: 1, queriesPerLap: 600, publishesPerLap: 2,
		metricFloor: 0.64,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one row of BENCHMARK.json's end_to_end (bound set) or
// per_layer (bound ignored) list.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// sloMs is the latency limit behind query_slo_frac.
const sloMs = 5.0

// Wall-clock metrics carry the widest bound the contract allows. That is
// this host's resolution, not a wish: the same binary's single-threaded
// rounds ran 15–55 % slower for tens of minutes at a time (README, "The
// host"), and a bound under the run-to-run spread rejects innocent changes.
// The counts (final_metric, wire_mb, sim_time) repeat exactly and are gated
// tightly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"construct_s", "s", "lower", 0.25},
	{"train_round_ms", "ms", "lower", 0.25},
	{"final_metric", "frac", "higher", 0.02},
	{"wire_mb", "MB", "lower", 0.001},
	{"sim_time", "sim_s", "lower", 0.001},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_slo_frac", "frac", "higher", 0.05},
	{"serve_qps", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ok_frac", "frac", "higher", 0.001},
}

var perLayer = []metricDef{
	{name: "graph.generate_ms", unit: "ms", better: "lower"},
	{name: "graph.split_ms", unit: "ms", better: "lower"},
	{name: "balance.balance_ms", unit: "ms", better: "lower"},
	{name: "balance.iters_per_s", unit: "1/s", better: "higher"},
	{name: "balance.max_workload", unit: "count", better: "lower"},
	{name: "smc.comparisons", unit: "count", better: "lower"},
	{name: "smc.compare_us", unit: "us", better: "lower"},
	{name: "tree.build_ms", unit: "ms", better: "lower"},
	{name: "ldp.encode_ms", unit: "ms", better: "lower"},
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_tn_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.csr_aggregate_ms", unit: "ms", better: "lower"},
	{name: "autodiff.tape_nodes", unit: "count", better: "lower"},
	{name: "nn.gcn_layer_ms", unit: "ms", better: "lower"},
	{name: "nn.gat_layer_ms", unit: "ms", better: "lower"},
	{name: "nn.adam_step_us", unit: "us", better: "lower"},
	{name: "nn.mix_optstates_us", unit: "us", better: "lower"},
	{name: "core.newsystem_ms", unit: "ms", better: "lower"},
	{name: "core.step_ms", unit: "ms", better: "lower"},
	{name: "core.step_p90_ms", unit: "ms", better: "lower"},
	{name: "core.eval_ms", unit: "ms", better: "lower"},
	{name: "core.fwd_share", unit: "frac", better: "lower"},
	{name: "core.replica_roundtrip_us", unit: "us", better: "lower"},
	{name: "core.mix_us", unit: "us", better: "lower"},
	{name: "fed.msgs_per_round", unit: "count", better: "lower"},
	{name: "fed.bytes_per_round", unit: "B", better: "lower"},
	{name: "fleet.profiles_ms", unit: "ms", better: "lower"},
	{name: "fleet.servebatch_us", unit: "us", better: "lower"},
	{name: "topo.build_ms", unit: "ms", better: "lower"},
	{name: "topo.edges", unit: "count", better: "lower"},
	{name: "sim.new_ms", unit: "ms", better: "lower"},
	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.rounds_per_s", unit: "1/s", better: "higher"},
	{name: "sim.nontrain_share", unit: "frac", better: "lower"},
	{name: "sim.mean_participants", unit: "count", better: "higher"},
	{name: "sim.late", unit: "count", better: "lower"},
	{name: "sim.stale_applied", unit: "count", better: "lower"},
	{name: "sim.energy_j", unit: "J", better: "lower"},
	{name: "snapshot.publish_to_answer_ms", unit: "ms", better: "lower"},
	{name: "snapshot.capture_ms", unit: "ms", better: "lower"},
	{name: "snapshot.publish_ms", unit: "ms", better: "lower"},
	{name: "snapshot.read_ms", unit: "ms", better: "lower"},
	{name: "snapshot.bytes", unit: "B", better: "lower"},
	{name: "serve.newbundle_ms", unit: "ms", better: "lower"},
	{name: "serve.swap_us", unit: "us", better: "lower"},
	{name: "serve.lookup_ns", unit: "ns", better: "lower"},
	{name: "serve.inproc_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.http_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.http_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.http_share", unit: "frac", better: "lower"},
	{name: "serve.batch_mean", unit: "count", better: "higher"},
	{name: "serve.errors", unit: "count", better: "lower"},
	{name: "serve.version_regressions", unit: "count", better: "lower"},
	{name: "obs.overhead_frac", unit: "frac", better: "lower"},
	{name: "obs.trace_events", unit: "count", better: "lower"},
	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "report.analyze_ms", unit: "ms", better: "lower"},
	{name: "rt.allocs_per_round", unit: "count", better: "lower"},
	{name: "rt.alloc_kb_per_round", unit: "kB", better: "lower"},
	{name: "rt.gc_count", unit: "count", better: "lower"},
	{name: "rt.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "rt.train_cpu_s", unit: "s", better: "lower"},
	{name: "rt.cpu_util", unit: "frac", better: "higher"},
	{name: "host.canary_ms", unit: "ms", better: "lower"},
	{name: "host.canary_spread", unit: "frac", better: "lower"},
}
