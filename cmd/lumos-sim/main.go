// Command lumos-sim plays a Lumos deployment through the discrete-event
// device-network simulator (internal/sim): a heterogeneous device fleet with
// churn and partial participation trains round by round on a virtual clock,
// and the per-round timeline — simulated wall-clock, bytes on the wire,
// participation, energy, loss, evaluation metric — is printed as a table.
// The simulator drives a core.Session, so -task selects either objective:
// node classification (accuracy timeline) or link prediction (AUC timeline).
//
// The device population comes from internal/fleet: synthetic fleets
// (uniform, zipf, periodic availability) or a trace file of per-device
// capacity/power/availability records (-fleet trace:<path>, FedScale-style
// CSV; generate a sample with lumos-datagen -traces). -agg-capacity
// puts an M/G/1-style shared server at the aggregator so uploads and model
// broadcasts serialize instead of using independent links, and every round
// reports the fleet's energy spend (compute x profile power + radio bytes).
//
// Usage:
//
//	lumos-sim -dataset facebook -scale 0.02 -fleet zipf -churn 0.2 -rounds 30
//	lumos-sim -task unsupervised -churn 0.2 -sched async
//	lumos-sim -fleet periodic -participation 0.5 -sched async -staleness 2
//	lumos-sim -fleet trace:fleet.csv -agg-capacity 2e6 -rounds 20
//	lumos-sim -sched gossip -topology ring:4 -rounds 20
//	lumos-sim -sched gossip -topology ba:2 -link-discipline fifo
//	lumos-sim -participation-policy energy -energy-budget 0.5
//	lumos-sim -sched both -rounds 20 -csv
//	lumos-sim -rounds 20 -trace out.trace.json   # open in Perfetto (ui.perfetto.dev)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lumos/internal/cli"
	"lumos/internal/core"
	"lumos/internal/eval"
	"lumos/internal/fed"
	"lumos/internal/fleet"
	"lumos/internal/report"
	"lumos/internal/rng"
	"lumos/internal/sim"
	"lumos/internal/topo"
)

func main() {
	data := cli.Data{Dataset: "facebook", Scale: 0.02, Seed: 7}
	model := cli.Model{Task: "supervised", Backbone: "gcn", Epsilon: 2, MCMC: 150}
	engine := cli.Engine{Sched: "sync", Staleness: 2}
	var rec cli.Record
	data.Register(flag.CommandLine)
	model.Register(flag.CommandLine, "task", "backbone", "eps", "mcmc")
	engine.Register(flag.CommandLine)
	rec.Register(flag.CommandLine)
	var (
		fleetSpec = flag.String("fleet", "zipf", "device fleet: uniform|zipf|periodic|trace:<path> (CSV trace, see lumos-datagen -traces)")
		zipfSkew  = flag.Float64("zipf", 1.2, "zipf fleet skew (slowest device ~2^skew x median)")
		tracePer  = flag.Int("trace-period", 8, "periodic fleet availability period, rounds")
		traceDuty = flag.Float64("trace-duty", 0.75, "periodic fleet online fraction of each period")
		aggCap    = flag.Float64("agg-capacity", 0, "aggregator shared uplink/downlink capacity, bytes/s (0 = unlimited: independent links)")
		churn     = flag.Float64("churn", 0.2, "per-round probability an online device leaves")
		rejoin    = flag.Float64("rejoin", 0.5, "per-round probability an offline device returns")
		partic    = flag.Float64("participation", 0.8, "fraction of available devices sampled per round")
		rounds    = flag.Int("rounds", 20, "training rounds to simulate")
		topoSpec  = flag.String("topology", "", "gossip contact graph: ring[:k]|k-regular:<k>|ba:<m>|complete|file:<path> (required with -sched gossip)")
		linkDisc  = flag.String("link-discipline", "", "gossip link queueing: ps (default)|fifo")
		policy    = flag.String("participation-policy", "uniform", "participation policy: uniform|energy (skip devices over the per-round energy budget)")
		budget    = flag.Float64("energy-budget", 0, "energy policy per-round per-device budget, joules (0 = fleet mean projected spend)")
		ttl       = flag.Int("ttl", 2, "rounds an absent device's cached embeddings keep serving")
		evalEvery = flag.Int("eval-every", 5, "evaluate the test metric every k rounds")
		selection = flag.Bool("select", false, "round-driven model selection: keep the best validation-metric snapshot")
		csv       = flag.Bool("csv", false, "also print the per-round timeline as CSV")
	)
	flag.Parse()

	base, err := model.Config()
	check(err)
	base.Workers, base.Seed = engine.Workers, data.Seed
	fleetKind, tracePath, err := sim.ParseFleetSpec(*fleetSpec)
	check(err)
	var trace *fleet.Trace
	if tracePath != "" {
		trace, err = fleet.LoadTrace(tracePath)
		check(err)
	}
	var scheds []core.Sched
	switch strings.ToLower(engine.Sched) {
	case "both":
		scheds = []core.Sched{core.SchedSync, core.SchedAsync}
	default:
		m, err := core.ParseSched(engine.Sched)
		check(err)
		scheds = []core.Sched{m}
	}

	g, err := data.Load()
	check(err)
	// The task decides the split, the training graph, and the objective the
	// session trains. Objectives bind to one system, so each discipline run
	// below builds a fresh one from the factory.
	trainGraph, newObjective, err := core.SplitForTask(g, base.Task, rng.New(data.Seed))
	check(err)
	fleetLabel := string(fleetKind)
	if trace != nil {
		fleetLabel = fmt.Sprintf("trace(%s: %d records)", trace.Name, len(trace.Devices))
	}
	fmt.Printf("dataset %s: N=%d M=%d | task=%s fleet=%s churn=%.0f%% participation=%.0f%% rounds=%d\n",
		g.Name, g.N, g.NumEdges(), base.Task, fleetLabel, 100**churn, 100**partic, *rounds)

	scenario := sim.Scenario{
		Fleet: fleetKind, Trace: trace, ZipfSkew: *zipfSkew,
		TracePeriod: *tracePer, TraceDuty: *traceDuty,
		Churn: *churn, Rejoin: *rejoin, Participation: *partic,
		Rounds: *rounds, PartialTTL: *ttl, EvalEvery: *evalEvery,
		ModelSelection: *selection,
		LinkDiscipline: *linkDisc,
		Policy:         sim.Policy(strings.ToLower(*policy)),
		EnergyBudget:   *budget,
		Seed:           data.Seed,
	}
	gossipRun := false
	for _, m := range scheds {
		gossipRun = gossipRun || m == core.SchedGossip
	}
	if gossipRun && *topoSpec == "" {
		fatalf("-sched gossip needs a -topology (ring[:k]|k-regular:<k>|ba:<m>|complete|file:<path>)")
	}
	if *topoSpec != "" {
		if !gossipRun {
			fatalf("-topology requires -sched gossip")
		}
		spec, err := topo.ParseSpec(*topoSpec)
		check(err)
		tp, err := spec.Build(g.N, data.Seed)
		check(err)
		scenario.Topology = tp
		fmt.Printf("topology %s: %d nodes, %d edges, connected=%v\n",
			tp.Name(), tp.N(), tp.NumEdges(), tp.Connected())
	}
	if *aggCap != 0 {
		cost := fed.DefaultCostModel()
		cost.AggBytesPerSecond = *aggCap
		scenario.Cost = cost
	}
	if *partic <= 0 || *partic > 1 {
		fatalf("-participation %v outside (0,1]", *partic)
	}
	// The scenario's zero values select defaults; a literal 0 on these flags
	// means "off" and maps to the negative sentinel.
	if *rejoin == 0 {
		scenario.Rejoin = -1
	}
	if *ttl == 0 {
		scenario.PartialTTL = -1
	}
	if *evalEvery == 0 {
		scenario.EvalEvery = -1
	}

	type summary struct {
		sched string
		res   *sim.Result
	}
	var sums []summary
	for _, mode := range scheds {
		cfg := base
		cfg.Shards = g.N // one device per shard: exact per-device participation
		cfg.Sched = mode
		if mode == core.SchedAsync {
			cfg.Staleness = engine.Staleness
		}
		// Telemetry is per discipline run: a fresh virtual-clock tracer and
		// metrics registry each time, so -sched both writes one trace file
		// and one metrics dump per mode instead of mixing their streams. The
		// registry is shared with the training session (Config.Metrics); the
		// wall-clock Config.Tracer stays nil — the simulator runs on virtual
		// time and the two clocks must not land in one trace.
		m := cli.Manifest("lumos-sim", g.Name, cfg, *rounds)
		m.Fleet, m.Topology = fleetLabel, *topoSpec
		run, err := rec.Start(m, true, len(scheds) > 1)
		check(err)
		cfg.Metrics = run.Metrics
		sys, err := core.NewSystem(trainGraph, g, cfg)
		check(err)
		sc := scenario
		sc.Tracer, sc.Metrics = run.Tracer, run.Metrics
		sc.RoundObserver = func(rs sim.RoundStats) {
			check(run.Round(report.RowFromSim(rs)))
		}
		s, err := sim.New(sys, sc)
		check(err)
		res, err := s.Run(newObjective())
		check(err)
		sums = append(sums, summary{mode.String(), res})

		printTimeline(mode.String(), res, *csv)
		check(run.Finish(report.Summary{
			MetricName: res.Metric, FinalMetric: res.FinalMetric,
			WallClock: res.WallClock, TotalBytes: res.TotalBytes,
			TotalEnergy: res.TotalEnergy,
		}))
	}
	for _, s := range sums {
		fmt.Printf("%-5s: wall-clock %8.3fs  bytes %12d  avg participants %5.1f  final %s %.4f  stale %d  dropped %d\n",
			s.sched, s.res.WallClock, s.res.TotalBytes, s.res.MeanParticipants,
			s.res.Metric, s.res.FinalMetric, s.res.StaleApplied, s.res.Dropped)
		maxDev := 0.0
		for _, e := range s.res.DeviceEnergy {
			if e > maxDev {
				maxDev = e
			}
		}
		fmt.Printf("%-5s: fleet energy %8.3f J  (%.3f J/round mean, hungriest device %.3f J)\n",
			s.sched, s.res.TotalEnergy, s.res.TotalEnergy/float64(len(s.res.Timeline)), maxDev)
	}
	if len(sums) == 2 && sums[1].res.WallClock > 0 {
		// sums[0] is sync, sums[1] async (the -sched both order).
		fmt.Printf("async speedup over sync (sync/async wall-clock): %.2fx\n",
			sums[0].res.WallClock/sums[1].res.WallClock)
	}
}

func printTimeline(sched string, res *sim.Result, csv bool) {
	t := &eval.Table{
		Title:   fmt.Sprintf("Simulated timeline (%s scheduling)", sched),
		Columns: []string{"round", "start(s)", "commit(s)", "avail", "part", "join", "leave", "late", "catchup", "stale", "drop", "bytes", "energy(J)", "loss", res.Metric},
	}
	for _, rs := range res.Timeline {
		metric := ""
		if rs.Evaluated {
			metric = fmt.Sprintf("%.4f", rs.Metric)
		}
		loss := fmt.Sprintf("%.4f", rs.Loss)
		if rs.Skipped {
			loss = "-"
		}
		t.AddRow(rs.Round, fmt.Sprintf("%.3f", rs.Start), fmt.Sprintf("%.3f", rs.Commit),
			rs.Available, rs.Participants, rs.Joined, rs.Left,
			rs.Late, rs.CatchUps, rs.StaleApplied, rs.Dropped, rs.Bytes,
			fmt.Sprintf("%.3f", rs.Energy), loss, metric)
	}
	check(t.Render(os.Stdout))
	if csv {
		check(t.RenderCSV(os.Stdout))
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lumos-sim: "+format+"\n", args...)
	os.Exit(1)
}
