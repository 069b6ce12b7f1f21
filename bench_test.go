// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section plus micro-benchmarks for the heavy substrates. Each
// figure benchmark runs the corresponding experiment end to end at a
// reduced scale and reports the headline quantities of that figure as
// custom benchmark metrics (accuracy ×1000, AUC ×1000, savings in %), so
// `go test -bench=.` regenerates the paper's artifacts in one pass.
//
// Paper-scale runs are available through cmd/lumos-bench with larger
// -fbscale/-lfscale/-epochs.
package lumos_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lumos"
	"lumos/internal/autodiff"
	"lumos/internal/balance"
	"lumos/internal/core"
	"lumos/internal/eval"
	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/ldp"
	"lumos/internal/nn"
	"lumos/internal/smc"
	"lumos/internal/tensor"
	"lumos/internal/tree"
)

// benchOpts are the reduced-scale experiment settings used by the figure
// benchmarks (a few hundred devices, short training).
func benchOpts() eval.Options {
	return eval.Options{
		FacebookScale:  0.012,
		LastFMScale:    0.04,
		Epochs:         12,
		MCMCIterations: 60,
		Backbones:      []nn.Backbone{nn.GCN},
		Datasets:       []string{eval.DatasetFacebook},
		Seed:           42,
	}
}

// BenchmarkFig3SupervisedAccuracy regenerates Fig. 3 (label classification
// accuracy: Lumos vs Centralized vs LPGNN vs Naive FedGNN).
func BenchmarkFig3SupervisedAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r := rs[0]
		b.ReportMetric(1000*r.Lumos, "lumos_acc‰")
		b.ReportMetric(1000*r.Centralized, "central_acc‰")
		b.ReportMetric(1000*r.LPGNN, "lpgnn_acc‰")
		b.ReportMetric(1000*r.NaiveFed, "naive_acc‰")
	}
}

// BenchmarkFig4LinkPredictionAUC regenerates Fig. 4 (ROC-AUC: Lumos vs
// Centralized vs Naive FedGNN).
func BenchmarkFig4LinkPredictionAUC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r := rs[0]
		b.ReportMetric(1000*r.Lumos, "lumos_auc‰")
		b.ReportMetric(1000*r.Centralized, "central_auc‰")
		b.ReportMetric(1000*r.NaiveFed, "naive_auc‰")
	}
}

// BenchmarkFig5EpsilonSensitivity regenerates Fig. 5 (accuracy/AUC across
// ε ∈ {0.5, 1, 2, 4}); reports the two curve endpoints.
func BenchmarkFig5EpsilonSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := rs[0], rs[len(rs)-1]
		b.ReportMetric(1000*lo.Accuracy, "acc_eps0.5‰")
		b.ReportMetric(1000*hi.Accuracy, "acc_eps4‰")
		b.ReportMetric(1000*lo.AUC, "auc_eps0.5‰")
		b.ReportMetric(1000*hi.AUC, "auc_eps4‰")
	}
}

// BenchmarkFig6Ablation regenerates Fig. 6 (Lumos vs w.o. virtual nodes vs
// w.o. tree trimming).
func BenchmarkFig6Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r := rs[0]
		b.ReportMetric(1000*r.Acc, "acc‰")
		b.ReportMetric(1000*r.AccNoVN, "acc_woVN‰")
		b.ReportMetric(1000*r.AccNoTT, "acc_woTT‰")
	}
}

// BenchmarkFig7WorkloadBalance regenerates Fig. 7 (workload CDF with and
// without tree trimming); reports the tail statistics.
func BenchmarkFig7WorkloadBalance(b *testing.B) {
	opts := benchOpts()
	opts.FacebookScale = 0.03 // balancing alone is cheap; use more devices
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		r := rs[0]
		b.ReportMetric(float64(r.TrimmedMax), "max_workload")
		b.ReportMetric(float64(r.RawMax), "max_degree")
		b.ReportMetric(float64(r.TrimmedP99), "p99_workload")
		b.ReportMetric(float64(r.RawP99), "p99_degree")
	}
}

// BenchmarkFig8SystemCost regenerates Fig. 8 (communication rounds and
// epoch time with vs without tree trimming).
func BenchmarkFig8SystemCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := eval.RunFig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		sup := rs[0]
		b.ReportMetric(sup.CommTrimmed, "comm_rounds_TT")
		b.ReportMetric(sup.CommRaw, "comm_rounds_woTT")
		b.ReportMetric(100*sup.CommSavings, "comm_saved_%")
		b.ReportMetric(100*sup.TimeSavings, "time_saved_%")
	}
}

// BenchmarkHeadlineClaims regenerates the §I claims (accuracy increase vs
// the federated baseline; communication and training-time reductions).
func BenchmarkHeadlineClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, _, _, err := eval.RunHeadline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*h.AccuracyIncrease, "acc_increase_%")
		b.ReportMetric(100*h.CommReduction, "comm_reduction_%")
		b.ReportMetric(100*h.TimeReduction, "time_reduction_%")
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkSecureCompare measures one OT-based 32-bit secure comparison.
func BenchmarkSecureCompare(b *testing.B) {
	stats := &smc.Stats{}
	p := smc.NewProtocol(32, stats)
	alice, bob := smc.NewParty(1), smc.NewParty(2)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Less(alice, uint64(rng.Intn(1<<20)), bob, uint64(rng.Intn(1<<20)))
	}
}

// BenchmarkGreedyInit measures Alg. 1 over a mid-sized power-law graph.
func BenchmarkGreedyInit(b *testing.B) {
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	devices := fed.NewDevices(g, 1)
	server := fed.NewServer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balance.Balance(g, devices, server, balance.Config{Iterations: 0, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCMCBalance measures the full tree-trimming pipeline (greedy +
// 100 MCMC iterations, plaintext comparisons).
func BenchmarkMCMCBalance(b *testing.B) {
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	devices := fed.NewDevices(g, 1)
	server := fed.NewServer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := balance.Balance(g, devices, server, balance.Config{Iterations: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.MaxWorkload()), "max_workload")
		}
	}
}

// BenchmarkMCMCBalanceSecure is the same pipeline with real OT-based
// comparisons, quantifying the cryptographic overhead.
func BenchmarkMCMCBalanceSecure(b *testing.B) {
	g, err := graph.FacebookLike(0.015, 1)
	if err != nil {
		b.Fatal(err)
	}
	devices := fed.NewDevices(g, 1)
	server := fed.NewServer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balance.Balance(g, devices, server, balance.Config{Iterations: 50, Secure: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeConstruction measures building every device's tree.
func BenchmarkTreeConstruction(b *testing.B) {
	g, err := graph.FacebookLike(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N; v++ {
			tree.Build(v, g.Adj[v])
		}
	}
}

// BenchmarkLDPFeatureEncode measures one device's embedding initialization
// (encode + every recipient's recovery, into caller-owned rows).
func BenchmarkLDPFeatureEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	enc := ldp.FeatureEncoder{Epsilon: 2, A: 0, B: 1, Workload: 12, Dim: 512}
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.Float64()
	}
	rows := make([][]float64, enc.Workload)
	for k := range rows {
		rows[k] = make([]float64, enc.Dim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeRecover(x, rows, nil, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestEpochGCN measures one supervised forward+backward+step
// over the assembled forest (the per-epoch cost of the Lumos trainer).
func BenchmarkForestEpochGCN(b *testing.B) {
	benchForestEpoch(b, lumos.GCN)
}

// BenchmarkForestEpochGAT is the GAT counterpart.
func BenchmarkForestEpochGAT(b *testing.B) {
	benchForestEpoch(b, lumos.GAT)
}

func benchForestEpoch(b *testing.B, bb lumos.Backbone) {
	g, err := graph.FacebookLike(0.012, 1)
	if err != nil {
		b.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := lumos.NewSystem(g, g, lumos.Config{
		Task: lumos.Supervised, Backbone: bb, Epochs: 1, MCMCIterations: 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TrainSupervised(split); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out
// ---------------------------------------------------------------------------

// BenchmarkAblationGreedyVsMCMC quantifies what the MCMC phase adds on top
// of the greedy initialization (max-workload objective, Fig. 7's driver).
func BenchmarkAblationGreedyVsMCMC(b *testing.B) {
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	devices := fed.NewDevices(g, 1)
	server := fed.NewServer(1)
	for i := 0; i < b.N; i++ {
		greedy, err := balance.Balance(g, devices, server, balance.Config{Iterations: 0, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		mcmc, err := balance.Balance(g, devices, server, balance.Config{Iterations: 200, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.MaxDegree()), "max_untrimmed")
		b.ReportMetric(float64(greedy.MaxWorkload()), "max_greedy")
		b.ReportMetric(float64(mcmc.MaxWorkload()), "max_mcmc")
	}
}

// BenchmarkAblationRowNorm quantifies the leaf-feature row normalization
// (DESIGN.md deviation 4): supervised accuracy with and without it.
func BenchmarkAblationRowNorm(b *testing.B) {
	g, err := graph.FacebookLike(0.012, 1)
	if err != nil {
		b.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	run := func(disable bool) float64 {
		sys, err := lumos.NewSystem(g, g, lumos.Config{
			Task: lumos.Supervised, Backbone: lumos.GCN,
			Epochs: 15, MCMCIterations: 40, DisableRowNorm: disable, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.TrainSupervised(split); err != nil {
			b.Fatal(err)
		}
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		if err != nil {
			b.Fatal(err)
		}
		return acc
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(1000*run(false), "acc_rownorm‰")
		b.ReportMetric(1000*run(true), "acc_raw‰")
	}
}

// BenchmarkEpochSerial measures one supervised training epoch through the
// device-parallel engine pinned to a single worker — the serial baseline of
// the Workers knob. The split carries no validation set so the measurement
// is the epoch itself, not model selection.
func BenchmarkEpochSerial(b *testing.B) {
	sys, split := newEpochBenchSystem(b, 1)
	// One untimed warm-up epoch so the heap is as warm as in the parallel
	// benchmark's baseline phase.
	if _, err := sys.TrainSupervised(split); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TrainSupervised(split); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochParallel is the regression guard for the engine: the same
// epoch with a full worker pool, reporting the speedup over the serial
// baseline as a custom metric. Determinism makes the comparison exact — the
// two configurations run bit-identical math, only scheduled differently.
func BenchmarkEpochParallel(b *testing.B) {
	workers := runtime.NumCPU()
	serial, serialSplit := newEpochBenchSystem(b, 1)
	serialPerEpoch := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := serial.TrainSupervised(serialSplit); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d < serialPerEpoch {
			serialPerEpoch = d
		}
	}
	sys, split := newEpochBenchSystem(b, workers)
	// Same untimed warm-up the serial side gets, so neither configuration
	// pays first-epoch allocation costs inside the timed region.
	if _, err := sys.TrainSupervised(split); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TrainSupervised(split); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallelPerEpoch := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(serialPerEpoch)/float64(parallelPerEpoch), "speedup×")
}

// newEpochBenchSystem builds the shared workload of the epoch benchmarks: a
// mid-sized power-law graph, one-epoch supervised training, no validation
// split (so TrainSupervised measures exactly one engine epoch per call).
func newEpochBenchSystem(b *testing.B, workers int) (*lumos.System, *graph.NodeSplit) {
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.6, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := lumos.NewSystem(g, g, lumos.Config{
		Task: lumos.Supervised, Backbone: lumos.GCN, Epochs: 1,
		MCMCIterations: 30, Workers: workers, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys, split
}

// BenchmarkRoundShardsN is the core round rung of the ladder: one
// partial-participation Session.StepRound on the sim-async-churn system
// (facebook×0.02, one device per shard) — the call the simulator makes once
// per committed round, measured without the simulator around it. The seeded
// schedule has half the fleet present each round and 30 % of the
// participants' gradients delayed by 1–2 rounds, under the simulator's
// default cache TTL of 2.
func BenchmarkRoundShardsN(b *testing.B) {
	g, err := graph.LoadDataset("facebook", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := lumos.NewSystem(g, g, lumos.Config{
		Task: lumos.Supervised, Backbone: lumos.GCN, MCMCIterations: 150,
		Sched: lumos.SchedAsync, Staleness: 2, Shards: g.N, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := sys.NewSession(lumos.NewSupervisedObjective(split))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	plans := make([]lumos.RoundPlan, 16)
	for r := range plans {
		active, delays := make([]bool, g.N), make([]int, g.N)
		for v := range active {
			active[v] = rng.Float64() < 0.5
			if active[v] && rng.Float64() < 0.3 {
				delays[v] = 1 + rng.Intn(2)
			}
		}
		plans[r] = lumos.RoundPlan{Active: active, Delays: delays, TTL: 2}
	}
	// One untimed lap of the schedule warms the tapes and caches.
	for _, plan := range plans {
		if _, err := sess.StepRound(plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.StepRound(plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipRounds is the gossip rung of the ladder: one op is a
// 10-round Simulator.Run on the gossip-ba-swap system (facebook×0.008, one
// device per shard, a Barabási–Albert contact graph with m = 3, lr 0.1,
// churn 0.05, everyone online participating) — per round, every
// participant's replica swap in, one-device StepRound and swap out, the
// per-link delta queues, and the Metropolis–Hastings mixes, plus one run's
// replica setup and final consensus evaluation.
func BenchmarkGossipRounds(b *testing.B) {
	g, err := graph.LoadDataset("facebook", 0.008, 7)
	if err != nil {
		b.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := lumos.NewSystem(g, g, lumos.Config{
		Task: lumos.Supervised, Backbone: lumos.GCN, MCMCIterations: 150, LearningRate: 0.1,
		Sched: lumos.SchedGossip, Shards: g.N, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lumos.ParseTopologySpec("ba:3")
	if err != nil {
		b.Fatal(err)
	}
	tp, err := spec.Build(g.N, 7)
	if err != nil {
		b.Fatal(err)
	}
	obj := lumos.NewSupervisedObjective(split)
	run := func() {
		s, err := lumos.NewSimulator(sys, lumos.SimScenario{
			Fleet: lumos.FleetZipf, Churn: 0.05, Participation: 1,
			Rounds: 10, EvalEvery: -1, Seed: 7, Topology: tp,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(obj); err != nil {
			b.Fatal(err)
		}
	}
	run() // warms the shard tapes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFirstLayer is the first layer's product and weight gradient
// (MatMul forward, then W's gradient from a fixed upstream gradient) over
// the whole epoch-gcn-secure forest (facebook×0.025, secure trees, 118
// features → 16): "dense" multiplies Forest.X, "view" its row-constant-plus-
// residual form Forest.XView, which the engine's shard forwards read.
func BenchmarkFirstLayer(b *testing.B) {
	g, err := graph.LoadDataset("facebook", 0.025, 7)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(g, g, core.Config{
		Task: core.Supervised, Backbone: nn.GCN, SecureCompare: true, MCMCIterations: 100, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	x, view := sys.Forest.X, sys.Forest.XView
	rng := rand.New(rand.NewSource(7))
	w := autodiff.Var(tensor.Glorot(x.Cols(), 16, rng))
	seed := tensor.Uniform(x.Rows(), 16, -1, 1, rng)
	tape := autodiff.NewTape()
	for _, c := range []struct {
		name string
		leaf func() *autodiff.Value
	}{
		{"dense", func() *autodiff.Value { return tape.Const(x) }},
		{"view", func() *autodiff.Value { return tape.ConstSparse(x, view) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tape.Reset()
				w.ZeroGrad()
				autodiff.MatMul(c.leaf(), w).BackwardWithGradient(seed)
			}
			b.ReportMetric(float64(view.Entries())/float64(x.Rows()), "entries/row")
		})
	}
}

// BenchmarkMatMul measures the dense kernel at a typical layer size.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Uniform(4096, 128, -1, 1, rng)
	w := tensor.Uniform(128, 16, -1, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

// BenchmarkMatMulInto sweeps the register-blocked matmul kernel over square
// sizes spanning L1-resident to cache-busting.
func BenchmarkMatMulInto(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(7))
		x := tensor.Uniform(n, n, -1, 1, rng)
		w := tensor.Uniform(n, n, -1, 1, rng)
		out := tensor.New(n, n)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, w)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkMatMulTNAddInto isolates the Aᵀ·B gradient kernel (the weight-
// gradient accumulation of every dense layer): a blocked 4-row rank-1 update
// with a hoisted sparsity check.
func BenchmarkMatMulTNAddInto(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := tensor.Uniform(4096, 128, -1, 1, rng)
	g := tensor.Uniform(4096, 16, -1, 1, rng)
	dst := tensor.New(128, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTNAddInto(dst, a, g)
	}
}

// BenchmarkCSRAggregate measures the fused CSR neighborhood aggregation (one
// op: forward + backward) on a power-law graph shaped like the training
// workload.
func BenchmarkCSRAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g, err := graph.FacebookLike(0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]int, 0, 2*len(g.Edges))
	dst := make([]int, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		src = append(src, e[0], e[1])
		dst = append(dst, e[1], e[0])
	}
	coef := make([]float64, len(src))
	for i := range coef {
		coef[i] = rng.Float64()
	}
	csr := tensor.NewCSR(g.N, src, dst)
	h := tensor.Uniform(g.N, 64, -1, 1, rng)
	seed := tensor.Uniform(g.N, 64, -1, 1, rng)
	tape := autodiff.NewTape()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		out := autodiff.CSRAggregate(tape.Var(h), csr, coef)
		out.BackwardWithGradient(seed)
	}
}

// BenchmarkBackwardGCNLayer measures autodiff through one graph conv.
func BenchmarkBackwardGCNLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, err := graph.FacebookLike(0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	conv := nn.NewConvGraph(g.N, g.Edges)
	layer := nn.NewGCNConv("l", 64, 16, rng)
	x := tensor.Uniform(g.N, 64, -1, 1, rng)
	tape := autodiff.NewTape()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		out := layer.Forward(conv, tape.Const(x))
		loss := autodiff.SumSquares(out)
		nn.ZeroGrad(layer)
		loss.Backward()
	}
}
