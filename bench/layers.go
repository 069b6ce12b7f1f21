package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lumos/internal/autodiff"
	"lumos/internal/balance"
	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/fleet"
	"lumos/internal/ldp"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/report"
	"lumos/internal/sim"
	"lumos/internal/smc"
	"lumos/internal/tensor"
	"lumos/internal/topo"
	"lumos/internal/tree"
)

// tracedRun is the second, shorter run behind -trace 1. It records a span
// around every call the harness makes into a layer, alternates plain laps
// with laps that carry the library's own telemetry (their difference is
// obs.overhead_frac), probes each layer's public functions at the
// workload's own shapes, and writes the spans to bench/out.
func tracedRun(w *workload, dataSeed, querySeed int64, seconds int) (*result, error) {
	rec := newRecorder(w.name)
	r, err := newRun(w, dataSeed, querySeed, rec)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	tele := &telemetry{reg: obs.New(), coreTracer: obs.NewTracer(), simTracer: obs.NewVirtualTracer()}
	sv, err := r.startServing(tele.reg)
	if err != nil {
		return nil, err
	}
	defer sv.close()

	cpu0, wall0 := cpuSeconds(), time.Now()
	canary := []float64{canaryMs()}
	d, err := r.setup(sv)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// A third of the end-to-end run's laps, at least one pair: plain,
	// telemetry, plain, telemetry, …
	pairs := (lapCount(w, seconds) + 5) / 6
	var m measured
	var plain, traced []*pass
	for l := 0; l < 2*pairs; l++ {
		lt, into := (*telemetry)(nil), &plain
		if l%2 == 1 {
			lt, into = tele, &traced
		}
		if err := r.lap(d, sv, l, lt, &m); err != nil {
			return nil, fmt.Errorf("lap %d: %w", l, err)
		}
		*into = append(*into, m.passes[l])
	}
	canary = append(canary, m.canary...)
	passes := m.passes
	r.passChecks(passes)

	v := map[string]float64{}
	spans := rec.snapshot()
	med := func(layer, name string) float64 { return median(durationsMs(spans, layer, name)) }

	v["graph.generate_ms"] = med("graph", "LoadDataset")
	v["graph.split_ms"] = med("graph", "SplitForTask")
	v["core.newsystem_ms"] = med("core", "NewSystem")
	v["snapshot.publish_to_answer_ms"] = median(m.publishMs)
	v["snapshot.capture_ms"] = med("snapshot", "Capture")
	v["snapshot.publish_ms"] = med("snapshot", "PublishNext")
	v["snapshot.read_ms"] = med("snapshot", "Read")
	v["serve.newbundle_ms"] = med("serve", "NewBundle")
	v["serve.swap_us"] = med("serve", "Server.Swap") * 1e3
	if st, err := os.Stat(sv.snapPath); err == nil {
		v["snapshot.bytes"] = float64(st.Size())
	}

	// Training rounds, from the pass records (the spans carry the same
	// intervals; the records also know which rounds were timed).
	var rounds []float64
	var mallocs uint64
	var allocKB, trainWall, trainCPU float64
	for _, p := range passes {
		rounds = append(rounds, p.roundMs...)
		mallocs += p.mallocs
		allocKB += p.allocKB
		for i := range p.roundMs {
			trainWall += p.roundMs[i] / 1e3
			trainCPU += p.roundCPU[i]
		}
	}
	first := passes[0]
	v["core.step_ms"] = median(rounds)
	v["core.step_p90_ms"], _ = quantile(rounds, 0.9)
	var evals []float64
	for _, p := range passes {
		evals = append(evals, p.evalMs)
	}
	if w.trainer == trainEpochs {
		v["core.eval_ms"] = median(evals)
	} else {
		// The simulator evaluates inside Run; time the same forward here.
		v["core.eval_ms"] = med("core", "System.Predictions+Embeddings")
	}
	v["core.fwd_share"] = v["core.eval_ms"] / v["core.step_ms"]
	v["fed.msgs_per_round"] = float64(first.msgs) / float64(w.rounds)
	v["fed.bytes_per_round"] = float64(first.wire) / float64(w.rounds)
	totalRounds := float64(len(passes) * w.rounds)
	v["rt.allocs_per_round"] = float64(mallocs) / totalRounds
	v["rt.alloc_kb_per_round"] = allocKB / totalRounds
	v["rt.train_cpu_s"] = trainCPU / float64(len(passes)) // per pass, over its timed rounds
	v["rt.cpu_util"] = trainCPU / (trainWall * threads)

	plainMs, err := envelopeMs(plain)
	if err != nil {
		return nil, err
	}
	tracedMs, err := envelopeMs(traced)
	if err != nil {
		return nil, err
	}
	v["obs.overhead_frac"] = tracedMs/plainMs - 1

	if w.trainer == trainSim {
		res := first.sim
		v["sim.new_ms"] = med("sim", "New")
		v["sim.run_s"] = med("sim", "Simulator.Run") / 1e3
		v["sim.rounds_per_s"] = float64(w.rounds) / v["sim.run_s"]
		v["sim.mean_participants"] = res.MeanParticipants
		v["sim.stale_applied"] = float64(res.StaleApplied)
		v["sim.energy_j"] = res.TotalEnergy
		late := 0
		for _, rs := range res.Timeline {
			late += rs.Late
		}
		v["sim.late"] = float64(late)
		// The session's own step histogram (telemetry laps only) says how
		// much of Run was training; the rest is the simulator's.
		steps := tele.reg.Histogram("lumos_train_step_seconds", "", obs.DurationBuckets).Snapshot()
		runS := 0.0
		for _, p := range traced {
			runS += p.runS
		}
		v["sim.nontrain_share"] = 1 - steps.Sum/runS
		t0 := time.Now()
		var analyzeErr error
		rec.in("report", "AnalyzeTrace", func() { _, analyzeErr = report.AnalyzeTrace(tele.simTracer.Events(), 5) })
		r.check(analyzeErr == nil, "AnalyzeTrace on the simulator's trace: %v", analyzeErr)
		v["report.analyze_ms"] = time.Since(t0).Seconds() * 1e3
	}
	v["obs.trace_events"] = float64(tele.coreTracer.Len() + tele.simTracer.Len())
	var scrape bytes.Buffer
	t0 := time.Now()
	rec.in("obs", "Registry.WritePrometheus", func() { err = tele.reg.WritePrometheus(&scrape) })
	if err != nil {
		return nil, err
	}
	v["obs.scrape_ms"] = time.Since(t0).Seconds() * 1e3
	if batches := tele.reg.Histogram("lumos_serve_batch_size", "", nil).Snapshot(); batches.Count > 0 {
		v["serve.batch_mean"] = batches.Sum / float64(batches.Count)
	}

	// The workload's own query phase.
	lat := m.latMs
	v["serve.http_p50_ms"], _ = quantile(lat, 0.5)
	v["serve.http_p99_ms"], _ = quantile(lat, tailQuantile(len(lat)))
	v["serve.errors"] = float64(m.errors)
	v["serve.version_regressions"] = float64(m.regress)
	r.check(m.regress == 0, "%d version regressions", m.regress)

	if err := r.probes(d, sv, v); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	canary = append(canary, canaryMs())
	v["host.canary_ms"] = median(canary)
	v["host.canary_spread"] = (maxOf(canary) - minOf(canary)) / median(canary)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["rt.gc_count"] = float64(ms.NumGC)
	v["rt.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6

	spans = rec.snapshot()
	tracePath := filepath.Join(outDir, w.name+".trace.json")
	if err := writeTrace(tracePath, w.name, spans); err != nil {
		return nil, err
	}
	back, err := obs.ReadEventsFile(tracePath)
	r.check(err == nil && len(back) >= len(spans), "trace %s does not read back: %v", tracePath, err)

	res := &result{workload: w.name, values: v}
	r.counts(res)
	res.notes = []string{
		fmt.Sprintf("%d plain + %d telemetry laps x %d rounds; %d spans in %s", pairs, pairs, w.rounds, len(spans), tracePath),
		fmt.Sprintf("serve.http_p99_ms is the p%.0f of %d samples", 100*tailQuantile(len(lat)), len(lat)),
		fmt.Sprintf("process: %.1f s CPU over %.1f s wall", cpuSeconds()-cpu0, time.Since(wall0).Seconds()),
		"self time by layer (span duration minus its children's), s: " + selfTable(spans),
	}
	return res, nil
}

// selfTable renders the per-layer self times, largest first.
func selfTable(spans []span) string {
	self := layerSelfSeconds(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var b bytes.Buffer
	for _, l := range layers {
		fmt.Fprintf(&b, "%s %.3f  ", l, self[l])
	}
	return b.String()
}

// fastest runs fn reps times and returns the fastest wall time in seconds:
// probes are small deterministic kernels, where the minimum is the reading
// least touched by the host.
func (r *run) fastest(layer, name string, reps int, fn func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r.rec.in(layer, name, fn)
		if s := time.Since(t0).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// probes calls each layer's public functions directly, at the shapes the
// workload trains on, and fills in the per-layer metrics the laps cannot see
// from outside.
func (r *run) probes(d *dataset, sv *serving, v map[string]float64) error {
	id := r.rec.begin(trackMain, "harness", "probes")
	defer r.rec.end(id)
	w := r.w
	sys, _, err := r.construct(d, w.rounds, nil)
	if err != nil {
		return err
	}
	g := d.trainGraph
	rng := rand.New(rand.NewSource(r.dataSeed))

	// balance / smc: the tree constructor on its own.
	var bal *balance.Result
	balS := r.fastest("balance", "Balance", 1, func() {
		bal, err = balance.Balance(g, fed.NewDevices(g, r.dataSeed), fed.NewServer(r.dataSeed),
			balance.Config{Iterations: w.mcmc, Secure: w.secure, Seed: r.dataSeed})
	})
	if err != nil {
		return err
	}
	v["balance.balance_ms"] = balS * 1e3
	v["balance.iters_per_s"] = float64(w.mcmc) / balS
	v["balance.max_workload"] = float64(bal.MaxWorkload())
	if w.secure {
		v["smc.comparisons"] = float64(bal.SMC.Comparisons)
	}
	var stats smc.Stats
	proto, alice, bob := smc.NewProtocol(32, &stats), smc.NewParty(1), smc.NewParty(2)
	const compares = 200
	v["smc.compare_us"] = r.fastest("smc", "Protocol.Less", 3, func() {
		for i := 0; i < compares; i++ {
			proto.Less(alice, uint64(i), bob, uint64(compares-i))
		}
	}) / compares * 1e6

	// tree / ldp: every device's tree, every vertex's encoded feature.
	v["tree.build_ms"] = r.fastest("tree", "Build", 3, func() {
		for u, ret := range bal.Retained {
			tree.Build(u, ret)
		}
	}) * 1e3
	holders := make([]int, g.N) // how many devices keep a leaf for u
	for _, ret := range bal.Retained {
		for _, u := range ret {
			holders[u]++
		}
	}
	v["ldp.encode_ms"] = r.fastest("ldp", "FeatureEncoder.Encode", 3, func() {
		for u := 0; u < g.N && err == nil; u++ {
			if holders[u] == 0 {
				continue
			}
			enc := ldp.FeatureEncoder{Epsilon: sys.Cfg.Epsilon, A: g.FeatLo, B: g.FeatHi, Workload: holders[u], Dim: g.FeatureDim()}
			_, err = enc.Encode(g.Features.Row(u), rng)
		}
	}) * 1e3
	if err != nil {
		return err
	}

	// tensor: the first layer's matmuls and the aggregation over the forest.
	x := sys.Forest.X
	rows, in, hidden := x.Rows(), x.Cols(), sys.Cfg.Hidden
	wgt := tensor.Glorot(in, hidden, rng)
	out, grad := tensor.New(rows, hidden), tensor.New(in, hidden)
	flop := 2 * float64(rows) * float64(in) * float64(hidden)
	v["tensor.matmul_gflops"] = flop / r.fastest("tensor", "MatMulInto", 5, func() { tensor.MatMulInto(out, x, wgt) }) / 1e9
	v["tensor.matmul_tn_gflops"] = flop / r.fastest("tensor", "MatMulTNAddInto", 5, func() { tensor.MatMulTNAddInto(grad, x, out) }) / 1e9
	var edges [][2]int
	for dev, t := range sys.Trees {
		off := sys.Forest.Offsets[dev]
		for _, e := range t.Edges {
			edges = append(edges, [2]int{off + e[0], off + e[1]})
		}
	}
	conv := nn.NewConvGraph(rows, edges)
	agg := tensor.New(rows, hidden)
	v["tensor.csr_aggregate_ms"] = r.fastest("tensor", "CSRAggregateInto", 5, func() {
		tensor.CSRAggregateInto(agg, out, conv.CSR(), conv.Norm)
	}) * 1e3

	// autodiff / nn: one layer forward+backward on a tape, the optimizer.
	tape := autodiff.NewTape()
	layer := func(m nn.Module, forward func(*autodiff.Value) *autodiff.Value) func() {
		return func() {
			tape.Reset()
			nn.ZeroGrad(m)
			autodiff.SumSquares(forward(tape.Const(x))).Backward()
		}
	}
	gcn := nn.NewGCNConv("probe", in, hidden, rng)
	v["nn.gcn_layer_ms"] = r.fastest("nn", "GCNConv.Forward+Backward", 3,
		layer(gcn, func(h *autodiff.Value) *autodiff.Value { return gcn.Forward(conv, h) })) * 1e3
	gat := nn.NewGATConv("probe", in, hidden/sys.Cfg.Heads, sys.Cfg.Heads, true, rng)
	v["nn.gat_layer_ms"] = r.fastest("nn", "GATConv.Forward+Backward", 3,
		layer(gat, func(h *autodiff.Value) *autodiff.Value { return gat.Forward(conv, h) })) * 1e3
	tape.Reset()
	r.rec.in("autodiff", "Tape(GNN.Forward+loss)", func() {
		autodiff.SumSquares(sys.Encoder.Forward(conv, tape.Const(x), true, rng)).Backward()
	})
	v["autodiff.tape_nodes"] = float64(tape.Len())
	adam := nn.NewAdam(0.01)
	v["nn.adam_step_us"] = r.fastest("nn", "Adam.Step", 5, func() { adam.Step(sys.Params()) }) * 1e6

	// core replicas and the optimizer-state mix gossip does per device.
	const degree = 4
	reps := make([]*core.Replica, degree)
	states := make([]*nn.OptState, degree)
	ws := make([]float64, degree)
	for i := range reps {
		reps[i], states[i], ws[i] = sys.NewReplica(), adam.CaptureState(sys.Params()), 1.0/degree
	}
	dst := sys.NewReplica()
	v["core.replica_roundtrip_us"] = r.fastest("core", "StoreReplica+LoadReplica", 5, func() {
		if err = sys.StoreReplica(dst); err == nil {
			err = sys.LoadReplica(dst)
		}
	}) * 1e6
	if err != nil {
		return err
	}
	v["core.mix_us"] = r.fastest("core", "MixReplicas", 5, func() { err = core.MixReplicas(dst, reps, ws) }) * 1e6
	if err != nil {
		return err
	}
	v["nn.mix_optstates_us"] = r.fastest("nn", "MixOptStates", 5, func() { _, err = nn.MixOptStates(states, ws) }) * 1e6
	if err != nil {
		return err
	}

	// fleet / topo.
	v["fleet.profiles_ms"] = r.fastest("fleet", "BuildProfiles", 3, func() {
		_, err = sim.BuildProfiles(sim.Scenario{Fleet: sim.FleetZipf, ZipfSkew: 1.2, Seed: r.dataSeed}, g.N)
	}) * 1e3
	if err != nil {
		return err
	}
	jobs := make([]fleet.Job, 64)
	for i := range jobs {
		jobs[i] = fleet.Job{At: float64(i%8) * 1e-3, Bytes: sys.ModelBytes()}
	}
	v["fleet.servebatch_us"] = r.fastest("fleet", "Server.ServeBatch", 5, func() {
		link := fleet.Server{BytesPerSecond: 2e6, Discipline: fleet.DiscPS}
		link.ServeBatch(jobs)
	}) * 1e6
	spec, err := topo.ParseSpec("ba:3")
	if err != nil {
		return err
	}
	var tp *topo.Topology
	v["topo.build_ms"] = r.fastest("topo", "Spec.Build", 3, func() { tp, err = spec.Build(g.N, r.dataSeed) }) * 1e3
	if err != nil {
		return err
	}
	v["topo.edges"] = float64(tp.NumEdges())

	// serve: a bundle lookup, then one caller through the batcher and the
	// same caller over HTTP — the gap between the two is HTTP's share.
	want, err := expectations(sys)
	if err != nil {
		return err
	}
	if _, err := sv.publish(sys, trackMain); err != nil {
		return err
	}
	bundle := sv.srv.Current()
	node := []int{0}
	const lookups = 10000
	if want.preds != nil {
		v["serve.lookup_ns"] = r.fastest("serve", "Bundle.Classify", 3, func() {
			for i := 0; i < lookups; i++ {
				bundle.Classify(node)
			}
		}) / lookups * 1e9
	} else {
		pair := [][2]int{{0, 1}}
		v["serve.lookup_ns"] = r.fastest("serve", "Bundle.Score", 3, func() {
			for i := 0; i < lookups; i++ {
				bundle.Score(pair)
			}
		}) / lookups * 1e9
	}
	oneCaller := func(inproc bool) (float64, error) {
		res, err := sv.loadFrom(want, -2, 150, 1, inproc)
		if err != nil {
			return 0, err
		}
		p50, _ := quantile(res.latMs, 0.5)
		return p50, nil
	}
	inprocP50, err := oneCaller(true)
	if err != nil {
		return err
	}
	httpP50, err := oneCaller(false)
	if err != nil {
		return err
	}
	v["serve.inproc_p50_ms"] = inprocP50
	v["serve.http_share"] = 1 - inprocP50/httpP50
	return nil
}
