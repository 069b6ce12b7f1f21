package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"lumos/internal/core"
	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/obs"
	"lumos/internal/sim"
	"lumos/internal/topo"
)

// run is the state one workload run shares across its phases.
type run struct {
	w         *workload
	dataSeed  int64
	querySeed int64
	rec       *recorder // nil in the untraced run
	snapDir   string

	// Operation accounting behind ok_frac: every round, publish, query and
	// output check is attempted once and either succeeds or fails.
	opMu      sync.Mutex
	attempted int
	failed    int
	failures  []string // first few failure messages, for the report
}

func (r *run) ok(n int) {
	r.opMu.Lock()
	r.attempted += n
	r.opMu.Unlock()
}

func (r *run) fail(format string, args ...any) {
	r.opMu.Lock()
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.opMu.Unlock()
}

// counts copies the operation accounting into the result.
func (r *run) counts(res *result) {
	r.opMu.Lock()
	res.attempted, res.failed, res.failures = r.attempted, r.failed, r.failures
	r.opMu.Unlock()
}

// check counts one output check.
func (r *run) check(cond bool, format string, args ...any) {
	if cond {
		r.ok(1)
	} else {
		r.fail(format, args...)
	}
}

// dataset is what setup generates and every lap reuses.
type dataset struct {
	g          *graph.Graph // the full graph
	trainGraph *graph.Graph // g, or the training-edge subgraph for link prediction
	newObj     func() core.Objective
	topo       *topo.Topology // gossip contact graph, else nil
}

func (r *run) generate() (*dataset, error) {
	var d dataset
	var err error
	r.rec.in("graph", "LoadDataset", func() {
		d.g, err = graph.LoadDataset(r.w.dataset, r.w.scale, r.dataSeed)
	})
	if err != nil {
		return nil, err
	}
	r.rec.in("graph", "SplitForTask", func() {
		d.trainGraph, d.newObj, err = core.SplitForTask(d.g, r.w.task, rand.New(rand.NewSource(r.dataSeed)))
	})
	if err != nil {
		return nil, err
	}
	if r.w.topology != "" {
		spec, err := topo.ParseSpec(r.w.topology)
		if err != nil {
			return nil, err
		}
		r.rec.in("topo", "Spec.Build", func() {
			d.topo, err = spec.Build(d.g.N, r.dataSeed)
		})
		if err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// telemetry is the library's own instrumentation, attached only in the
// traced run's telemetry laps so its cost shows up as obs.overhead_frac.
type telemetry struct {
	reg        *obs.Registry
	coreTracer *obs.Tracer // wall clock, epoch trainer
	simTracer  *obs.Tracer // virtual clock, simulator
}

func (r *run) config(d *dataset, rounds int, tele *telemetry) core.Config {
	cfg := core.Config{
		Task: r.w.task, Backbone: r.w.backbone,
		SecureCompare: r.w.secure, MCMCIterations: r.w.mcmc,
		LearningRate: r.w.lr,
		Workers:      threads,
		Sched:        r.w.sched, Staleness: r.w.staleness,
		Seed: r.dataSeed,
		// One validation forward at epoch 0 and one on the last epoch, both
		// outside the timed rounds; none in between.
		Epochs: rounds, EvalEvery: rounds + 1,
	}
	if r.w.trainer == trainSim {
		cfg.Shards = d.g.N // one device per shard: exact per-device participation
	}
	if tele != nil {
		cfg.Metrics = tele.reg
		if r.w.trainer == trainEpochs {
			cfg.Tracer = tele.coreTracer
		}
	}
	return cfg
}

func (r *run) construct(d *dataset, rounds int, tele *telemetry) (*core.System, float64, error) {
	cfg := r.config(d, rounds, tele)
	var sys *core.System
	var err error
	t0 := time.Now()
	r.rec.in("core", "NewSystem", func() {
		sys, err = core.NewSystem(d.trainGraph, d.g, cfg)
	})
	return sys, time.Since(t0).Seconds(), err
}

// pass is one training pass over a fresh system.
type pass struct {
	roundMs  []float64 // timed rounds: all but the first and the last
	roundCPU []float64 // process CPU seconds over the same rounds
	losses   []float64 // every round
	metric   float64
	wire     int64   // bytes on the wire
	msgs     int     // messages on the wire
	simTime  float64 // virtual seconds to finish training
	evalMs   float64
	runS     float64     // wall of the whole pass
	sim      *sim.Result // trainSim only
	mallocs  uint64      // heap objects allocated during the pass
	allocKB  float64
}

func (r *run) train(d *dataset, sys *core.System, rounds int, tele *telemetry) (*pass, error) {
	var ms0, ms1 runtime.MemStats
	if r.rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	var p *pass
	var err error
	if r.w.trainer == trainEpochs {
		p, err = r.epochPass(d, sys, rounds)
	} else {
		p, err = r.simPass(d, sys, rounds, tele)
	}
	if err != nil {
		return nil, err
	}
	p.runS = time.Since(t0).Seconds()
	if r.rec != nil {
		runtime.ReadMemStats(&ms1)
		p.mallocs = ms1.Mallocs - ms0.Mallocs
		p.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	}
	for _, l := range p.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			r.fail("non-finite loss %v", l)
		}
	}
	r.ok(rounds)
	return p, nil
}

func (r *run) epochPass(d *dataset, sys *core.System, rounds int) (*pass, error) {
	sess, err := sys.NewSession(d.newObj())
	if err != nil {
		return nil, err
	}
	p := &pass{}
	before := sys.Net.Snapshot()
	for i := 0; i < rounds; i++ {
		c0, t0 := cpuSeconds(), time.Now()
		var loss float64
		r.rec.in("core", "Session.Step", func() { loss, err = sess.Step() })
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		if i > 0 && i < rounds-1 {
			p.roundMs = append(p.roundMs, time.Since(t0).Seconds()*1e3)
			p.roundCPU = append(p.roundCPU, cpuSeconds()-c0)
		}
		p.losses = append(p.losses, loss)
	}
	sess.FinishRounds()
	t0 := time.Now()
	r.rec.in("core", "Session.TestMetric", func() { p.metric, err = sess.TestMetric() })
	if err != nil {
		return nil, err
	}
	p.evalMs = time.Since(t0).Seconds() * 1e3
	stats := sess.Stats()
	for _, t := range stats.EpochTraffic {
		p.wire += t.TotalBytes()
	}
	p.msgs = sys.Net.Diff(before).TotalMessages()
	p.simTime = stats.SimEpochTime.Seconds() * float64(rounds)
	return p, nil
}

func (r *run) scenario(d *dataset, rounds int, tele *telemetry) sim.Scenario {
	sc := sim.Scenario{
		Fleet: sim.FleetZipf,
		Churn: r.w.churn, Participation: r.w.participation,
		Rounds: rounds, EvalEvery: -1, // the final round only
		Topology: d.topo,
		Seed:     r.dataSeed,
	}
	if r.w.aggBytesPerSecond > 0 {
		sc.Cost = fed.DefaultCostModel()
		sc.Cost.AggBytesPerSecond = r.w.aggBytesPerSecond
	}
	if tele != nil {
		sc.Metrics, sc.Tracer = tele.reg, tele.simTracer
	}
	return sc
}

func (r *run) simPass(d *dataset, sys *core.System, rounds int, tele *telemetry) (*pass, error) {
	p := &pass{}
	sc := r.scenario(d, rounds, tele)
	// Rounds are timed from inside Run: the observer fires as each round is
	// recorded, so a round is the gap between two calls.
	var lastT time.Time
	var lastC float64
	var commits []float64
	var sumBytes int64
	sc.RoundObserver = func(rs sim.RoundStats) {
		now, cpu := time.Now(), cpuSeconds()
		if rs.Round > 0 && rs.Round < rounds-1 {
			p.roundMs = append(p.roundMs, now.Sub(lastT).Seconds()*1e3)
			p.roundCPU = append(p.roundCPU, cpu-lastC)
		}
		r.rec.add("core", "Session.StepRound+sim.round", lastT, now)
		lastT, lastC = now, cpu
		p.losses = append(p.losses, rs.Loss)
		commits = append(commits, rs.Commit)
		sumBytes += rs.Bytes
	}
	var s *sim.Simulator
	var err error
	r.rec.in("sim", "New", func() { s, err = sim.New(sys, sc) })
	if err != nil {
		return nil, err
	}
	before := sys.Net.Snapshot()
	lastT, lastC = time.Now(), cpuSeconds()
	r.rec.in("sim", "Simulator.Run", func() { p.sim, err = s.Run(d.newObj()) })
	if err != nil {
		return nil, err
	}
	p.metric, p.wire, p.simTime = p.sim.FinalMetric, p.sim.TotalBytes, p.sim.WallClock
	p.msgs = sys.Net.Diff(before).TotalMessages()
	r.check(len(commits) == rounds, "simulator recorded %d rounds, want %d", len(commits), rounds)
	r.check(sumBytes == p.sim.TotalBytes, "per-round bytes sum to %d, result says %d", sumBytes, p.sim.TotalBytes)
	monotone := true
	for i := 1; i < len(commits); i++ {
		monotone = monotone && commits[i] >= commits[i-1]
	}
	r.check(monotone, "round commits are not monotone")
	return p, nil
}

// warmup is the untimed pass setup pays for: one system, a few rounds, one
// publish and a couple of hundred queries, so that heap growth, page faults
// and the HTTP stack's first-use costs land in setup_s and not in a metric.
func (r *run) warmup(d *dataset, sv *serving) error {
	const rounds = 3
	sys, _, err := r.construct(d, rounds, nil)
	if err != nil {
		return err
	}
	if _, err := r.train(d, sys, rounds, nil); err != nil {
		return err
	}
	want, err := expectations(sys)
	if err != nil {
		return err
	}
	if _, err := sv.publishCycle(sys, want); err != nil {
		return err
	}
	_, err = sv.load(want, -1, 100*sv.clients)
	return err
}

// setup generates the inputs and warms the process up.
func (r *run) setup(sv *serving) (*dataset, error) {
	var d *dataset
	var err error
	r.rec.in("harness", "setup", func() {
		if d, err = r.generate(); err == nil {
			err = r.warmup(d, sv)
		}
	})
	return d, err
}

// measured is everything the laps of one run produce.
type measured struct {
	setupS     []float64
	constructS []float64
	passes     []*pass
	publishMs  []float64
	latMs      []float64 // every answered query
	phaseP50   []float64 // per query phase: median latency of its answered queries
	phaseQPS   []float64 // per query phase: answered / wall
	sent       int
	withinSLO  int
	regress    int
	errors     int
	canary     []float64
}

// How often a lap samples core.NewSystem: at least constructMinPerLap times,
// then until constructBudgetS of calls or constructMaxPerLap of them.
const (
	constructMinPerLap = 3
	constructMaxPerLap = 20
	constructBudgetS   = 1.0
)

// lap is construct → train → publishes → queries on a fresh system.
func (r *run) lap(d *dataset, sv *serving, lapNo int, tele *telemetry, m *measured) error {
	id := r.rec.begin(trackMain, "harness", "lap")
	defer r.rec.end(id)
	// construct_s is the fastest NewSystem of the run, and the host's slow
	// spells last longer than one call: every lap builds the same system again
	// and again for constructBudgetS (4 times at 0.3 s a call, 20 times at
	// 25 ms), so the run has 24–160 samples spread over its whole length. The
	// last system built is the one the lap trains; the others are dropped.
	var sys *core.System
	for n, spent := 0, 0.0; n < constructMinPerLap || (spent < constructBudgetS && n < constructMaxPerLap); n++ {
		s, cs, err := r.construct(d, r.w.rounds, tele)
		if err != nil {
			return err
		}
		sys, spent = s, spent+cs
		m.constructS = append(m.constructS, cs)
	}
	p, err := r.train(d, sys, r.w.rounds, tele)
	if err != nil {
		return err
	}
	m.passes = append(m.passes, p)
	m.canary = append(m.canary, canaryMs())

	var want *expected
	r.rec.in("core", "System.Predictions+Embeddings", func() { want, err = expectations(sys) })
	if err != nil {
		return err
	}
	// The first publish from a new system pays its page faults (Capture took
	// 9.5 ms against 2.5 ms for the ones after it) and is not a sample; a
	// trainer that keeps publishing is in the state the later cycles are in.
	for c := 0; c <= r.w.publishesPerLap; c++ {
		ms, err := sv.publishCycle(sys, want)
		if err != nil {
			return err
		}
		if c > 0 {
			m.publishMs = append(m.publishMs, ms)
		}
	}
	if r.w.serve == serveHTTPMixedSwap {
		stop := sv.startPublisher(sys, want)
		err = r.queryPhases(sv, want, lapNo, m)
		stop()
	} else {
		err = r.queryPhases(sv, want, lapNo, m)
	}
	if err != nil {
		return err
	}
	// Collect the lap's garbage here, between laps, so that a cycle it would
	// have triggered does not land in the next lap's timed rounds.
	runtime.GC()
	return nil
}

// phasesPerLap is how many closed-loop query phases a lap runs. Each phase is
// one sample of latency and throughput, so a run has 15–24 of them to take
// the best of.
const phasesPerLap = 3

func (r *run) queryPhases(sv *serving, want *expected, lapNo int, m *measured) error {
	for ph := 0; ph < phasesPerLap; ph++ {
		res, err := sv.load(want, lapNo*phasesPerLap+ph, r.w.queriesPerLap/phasesPerLap)
		if err != nil {
			return err
		}
		m.latMs = append(m.latMs, res.latMs...)
		p50, _ := quantile(res.latMs, 0.5)
		m.phaseP50 = append(m.phaseP50, p50)
		m.phaseQPS = append(m.phaseQPS, float64(res.answered)/res.wallS)
		m.sent += res.sent
		m.withinSLO += res.withinSLO
		m.regress += res.regressions
		m.errors += res.sent - res.answered
	}
	return nil
}

// lapCount scales the workload's lap count with -seconds, never below the
// three passes the lower envelope needs.
func lapCount(w *workload, seconds int) int {
	n := int(math.Round(float64(w.laps) * float64(seconds) / nominalSeconds))
	if n < 3 {
		n = 3
	}
	return n
}

// envelopeMs is the lower envelope of the passes' timed rounds, summed.
func envelopeMs(passes []*pass) (float64, error) {
	var wall [][]float64
	for _, p := range passes {
		wall = append(wall, p.roundMs)
	}
	_, sum, err := lowerEnvelope(wall)
	return sum, err
}

// passChecks verifies that the passes were the same computation: loss
// traces, final metric, wire bytes and virtual time bit-identical.
func (r *run) passChecks(passes []*pass) {
	first := passes[0]
	for i, p := range passes[1:] {
		same := len(p.losses) == len(first.losses)
		for j := 0; same && j < len(p.losses); j++ {
			same = math.Float64bits(p.losses[j]) == math.Float64bits(first.losses[j])
		}
		r.check(same, "pass %d loss trace differs from pass 0", i+1)
		r.check(p.metric == first.metric && p.wire == first.wire && p.simTime == first.simTime,
			"pass %d ended at metric %v wire %d sim time %v, pass 0 at %v %d %v",
			i+1, p.metric, p.wire, p.simTime, first.metric, first.wire, first.simTime)
	}
	r.check(first.metric >= r.w.metricFloor, "final metric %.4f below the floor %.4f", first.metric, r.w.metricFloor)
}

// newRun prepares a run and its snapshot directory under bench/out.
func newRun(w *workload, dataSeed, querySeed int64, rec *recorder) (*run, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "snap-")
	if err != nil {
		return nil, err
	}
	liveSnapDir.Store(&dir)
	return &run{w: w, dataSeed: dataSeed, querySeed: querySeed, rec: rec, snapDir: dir}, nil
}

// cleanup removes the run's snapshot directory.
func (r *run) cleanup() {
	os.RemoveAll(r.snapDir)
	liveSnapDir.Store(nil)
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// endToEndRun is the untraced run: setup, laps, checks, the end-to-end metrics.
func endToEndRun(w *workload, dataSeed, querySeed int64, seconds int) (*result, error) {
	r, err := newRun(w, dataSeed, querySeed, nil)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	sv, err := r.startServing(nil)
	if err != nil {
		return nil, err
	}
	defer sv.close()

	// -selfcheck makes several runs in one process: start this run's
	// high-water mark from where the process stands now. Best effort; a
	// kernel that refuses leaves the process-wide peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	m := &measured{canary: []float64{canaryMs()}}
	var d *dataset
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if d, err = r.setup(sv); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		runtime.GC()
	}
	laps := lapCount(w, seconds)
	lapsStart := time.Now()
	for l := 0; l < laps; l++ {
		if err := r.lap(d, sv, l, nil, m); err != nil {
			return nil, fmt.Errorf("lap %d: %w", l, err)
		}
	}
	lapsS := time.Since(lapsStart).Seconds()
	m.canary = append(m.canary, canaryMs())
	r.passChecks(m.passes)
	r.check(m.regress == 0, "%d version regressions", m.regress)

	res := &result{workload: w.name, values: map[string]float64{}}
	wallSum, err := envelopeMs(m.passes)
	if err != nil {
		return nil, err
	}
	first := m.passes[0]
	p50, n := quantile(m.latMs, 0.5)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.values["setup_s"] = median(m.setupS)
	res.values["construct_s"] = minOf(m.constructS)
	res.values["train_round_ms"] = wallSum / float64(len(first.roundMs))
	res.values["final_metric"] = first.metric
	res.values["wire_mb"] = float64(first.wire) / 1e6
	res.values["sim_time"] = first.simTime
	res.values["query_p50_ms"] = minOf(m.phaseP50)
	res.values["query_slo_frac"] = float64(m.withinSLO) / float64(m.sent)
	res.values["serve_qps"] = maxOf(m.phaseQPS)
	res.values["peak_rss_mb"] = rss
	r.counts(res)
	res.values["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
	res.notes = []string{
		fmt.Sprintf("%d laps x %d rounds (%d timed) in %.1f s, GOMAXPROCS=workers=%d", laps, w.rounds, len(first.roundMs), lapsS, threads),
		fmt.Sprintf("construct_s: fastest of %d NewSystem calls (median %.3f s)", len(m.constructS), median(m.constructS)),
		fmt.Sprintf("publish to answer (per-layer snapshot.publish_to_answer_ms, not gated): median %.1f ms of %d cycles (%.1f..%.1f)",
			median(m.publishMs), len(m.publishMs), minOf(m.publishMs), maxOf(m.publishMs)),
		fmt.Sprintf("query_p50_ms, serve_qps: best of %d phases of %d queries (all %d answered: p50 %.4g ms, median phase %.6g 1/s); closed loop, %d clients, %d per request",
			len(m.phaseQPS), w.queriesPerLap/phasesPerLap, n, p50, median(m.phaseQPS), sv.clients, w.batch),
		fmt.Sprintf("host.canary_ms: %.2f median, %.2f..%.2f", median(m.canary), minOf(m.canary), maxOf(m.canary)),
	}
	return res, nil
}
