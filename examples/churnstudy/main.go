// Churn study: does staleness-bounded asynchronous scheduling actually buy
// wall-clock time over the paper's synchronous barrier once devices are
// heterogeneous and flaky?
//
// The experiment builds one synthetic social graph, then plays the *same*
// scenario — a zipf fleet (median device nominal, stragglers up to ~2.6×
// slower), 20% per-round churn, 80% partial participation — through the
// discrete-event simulator twice: once with the synchronous barrier
// (Config.Sched = SchedSync) and once with bounded staleness
// (SchedAsync, Staleness = 2). The availability and sampling schedules are
// seeded identically, so the only difference is the aggregation discipline.
//
// Expected outcome (deterministic for a fixed -seed): async commits the same
// number of rounds in strictly less simulated wall-clock, because the
// aggregator stops waiting for the straggler every round — it commits on a
// half-participant quorum and lets slow devices deliver up to two rounds
// late, amortizing their compute — while accuracy stays in the same band.
// The program exits non-zero if async fails to beat sync, so CI catches any
// regression in the scheduling model.
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
		n      = flag.Int("n", 160, "number of devices")
		m      = flag.Int("m", 800, "number of edges")
		rounds = flag.Int("rounds", 16, "training rounds to simulate")
		churn  = flag.Float64("churn", 0.2, "per-round probability an online device leaves")
		partic = flag.Float64("participation", 0.8, "fraction of available devices sampled per round")
		stale  = flag.Int("staleness", 2, "async gradient staleness bound in rounds")
		mcmc   = flag.Int("mcmc", 30, "MCMC tree-trimming iterations")
		seed   = flag.Int64("seed", 7, "run seed")
	)
	flag.Parse()

	g, err := lumos.Generate(lumos.GenConfig{
		Name: "churnstudy", N: *n, M: *m, Classes: 2, FeatureDim: 24, Seed: *seed,
	})
	fatal(err)
	split, err := lumos.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(*seed)))
	fatal(err)
	fmt.Printf("graph: %d devices, %d edges | zipf fleet, %.0f%% churn, %.0f%% participation, %d rounds\n",
		g.N, g.NumEdges(), 100**churn, 100**partic, *rounds)

	scenario := lumos.SimScenario{
		Fleet: lumos.FleetZipf, ZipfSkew: 1.4,
		Churn: *churn, Participation: *partic,
		Rounds: *rounds, EvalEvery: 4, Seed: *seed,
	}

	run := func(sched lumos.Sched, staleness int) *lumos.SimResult {
		sys, err := lumos.NewSystem(g, g, lumos.Config{
			Task: lumos.Supervised, MCMCIterations: *mcmc,
			Shards: g.N, // one device per shard: exact per-device participation
			Sched:  sched, Staleness: staleness,
			Seed: *seed,
		})
		fatal(err)
		s, err := lumos.NewSimulator(sys, scenario)
		fatal(err)
		res, err := s.Run(lumos.NewSupervisedObjective(split))
		fatal(err)
		return res
	}

	syncRes := run(lumos.SchedSync, 0)
	asyncRes := run(lumos.SchedAsync, *stale)

	fmt.Printf("\n%-28s %12s %12s\n", "", "sync", "async")
	fmt.Printf("%-28s %11.3fs %11.3fs\n", "simulated wall-clock", syncRes.WallClock, asyncRes.WallClock)
	fmt.Printf("%-28s %12d %12d\n", "bytes on the wire", syncRes.TotalBytes, asyncRes.TotalBytes)
	fmt.Printf("%-28s %12.1f %12.1f\n", "avg participants/round", syncRes.MeanParticipants, asyncRes.MeanParticipants)
	fmt.Printf("%-28s %12d %12d\n", "stale gradient applies", syncRes.StaleApplied, asyncRes.StaleApplied)
	fmt.Printf("%-28s %12.4f %12.4f\n", "final test accuracy", syncRes.FinalMetric, asyncRes.FinalMetric)

	if asyncRes.WallClock >= syncRes.WallClock {
		fmt.Printf("\nCHECK FAILED: async wall-clock %.3fs did not beat sync %.3fs\n",
			asyncRes.WallClock, syncRes.WallClock)
		os.Exit(1)
	}
	fmt.Printf("\nasync finished the same %d rounds %.2fx faster than the synchronous barrier\n",
		*rounds, syncRes.WallClock/asyncRes.WallClock)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "churnstudy: %v\n", err)
		os.Exit(1)
	}
}
