// Energy study: what does a participation policy cost in joules, and what
// does it buy in model quality?
//
// The experiment samples a heterogeneous device-fleet trace
// (lumos.SampleTrace — the same population lumos-datagen -traces writes:
// mid-range phones, fast-but-power-hungry flagships, and slow diurnal
// devices that cycle offline), then plays the *same* scenario through the
// discrete-event simulator once per participation policy (sample 25%, 50%,
// or 100% of the available devices each round). The aggregator runs with a
// finite shared uplink/downlink capacity, so the bigger quorums also pay
// M/G/1 queueing delay at the server, and every round's energy is accounted
// as compute-seconds × profile power + radio bytes × energy/byte.
//
// Expected outcome (deterministic for a fixed -seed): fleet energy grows
// monotonically with the participation fraction — more devices computing
// and uploading each round can only add joules — while the final metric
// improves much more slowly, so the joules-per-accuracy-point column makes
// the diminishing returns of large quorums visible. The program exits
// non-zero if energy fails to grow with participation, so CI catches any
// regression in the accounting.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"lumos"
)

func main() {
	var (
		n      = flag.Int("n", 120, "number of devices")
		m      = flag.Int("m", 600, "number of edges")
		rounds = flag.Int("rounds", 12, "training rounds to simulate per policy")
		aggCap = flag.Float64("agg-capacity", 2e6, "aggregator shared link capacity, bytes/s (0 = independent links)")
		mcmc   = flag.Int("mcmc", 30, "MCMC tree-trimming iterations")
		seed   = flag.Int64("seed", 7, "run seed")
	)
	flag.Parse()

	g, err := lumos.Generate(lumos.GenConfig{
		Name: "energystudy", N: *n, M: *m, Classes: 2, FeatureDim: 24, Seed: *seed,
	})
	fatal(err)
	split, err := lumos.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(*seed)))
	fatal(err)
	trace, err := lumos.SampleTrace(g.N, *seed)
	fatal(err)
	cycled := 0
	for _, p := range trace.Devices {
		if p.Period > 0 {
			cycled++
		}
	}
	fmt.Printf("graph: %d devices, %d edges | trace fleet (%d diurnal), agg capacity %.0f B/s, %d rounds/policy\n",
		g.N, g.NumEdges(), cycled, *aggCap, *rounds)

	cost := lumos.DefaultCostModel()
	cost.AggBytesPerSecond = *aggCap

	run := func(participation float64) *lumos.SimResult {
		sys, err := lumos.NewSystem(g, g, lumos.Config{
			Task: lumos.Supervised, MCMCIterations: *mcmc,
			Shards: g.N, // one device per shard: exact per-device participation
			Seed:   *seed,
		})
		fatal(err)
		sc := lumos.SimScenario{
			Fleet: lumos.FleetTrace, Trace: trace,
			Participation: participation, Rounds: *rounds,
			EvalEvery: 4, ModelSelection: true,
			Cost: cost, Seed: *seed,
		}
		s, err := lumos.NewSimulator(sys, sc)
		fatal(err)
		res, err := s.Run(lumos.NewSupervisedObjective(split))
		fatal(err)
		return res
	}

	policies := []float64{0.25, 0.5, 1.0}
	fmt.Printf("\n%-14s %12s %12s %12s %12s %10s %14s\n",
		"participation", "wallclock(s)", "bytes", "energy(J)", "J/round", "final acc", "J/acc point")
	var results []*lumos.SimResult
	for _, p := range policies {
		res := run(p)
		results = append(results, res)
		perPoint := 0.0
		if res.FinalMetric > 0 {
			perPoint = res.TotalEnergy / (100 * res.FinalMetric)
		}
		fmt.Printf("%13.0f%% %12.3f %12d %12.3f %12.3f %10.4f %14.4f\n",
			100*p, res.WallClock, res.TotalBytes, res.TotalEnergy,
			res.TotalEnergy/float64(len(res.Timeline)), res.FinalMetric, perPoint)
	}

	for i := 1; i < len(results); i++ {
		if results[i].TotalEnergy < results[i-1].TotalEnergy {
			fmt.Printf("\nCHECK FAILED: participation %.0f%% spent %.3f J, less than %.0f%% at %.3f J\n",
				100*policies[i], results[i].TotalEnergy, 100*policies[i-1], results[i-1].TotalEnergy)
			os.Exit(1)
		}
	}
	fmt.Printf("\nenergy grows monotonically with participation; full quorums cost %.1fx the joules of 25%% sampling\n",
		results[len(results)-1].TotalEnergy/results[0].TotalEnergy)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "energystudy: %v\n", err)
		os.Exit(1)
	}
}
