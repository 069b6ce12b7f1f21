// Topology study: how does the gossip contact graph shape decentralized
// training — and how close does every topology get to the centralized
// star-synchronous baseline?
//
// The experiment builds one zipf-heterogeneous fleet and plays the same
// scenario (full participation, no churn, equal rounds, same seed) four
// ways: once through the star-synchronous aggregator, then decentralized
// (lumos.SchedGossip) over three contact graphs — a sparse ring, a 4-regular
// graph, and a scale-free Barabási–Albert graph. Under gossip each device
// trains a private model replica and averages with its topology neighbors
// under Metropolis–Hastings weights; there is no aggregator, so a round's
// traffic is O(degree) per device and its wall-clock is paced by per-link
// (bottleneck-bandwidth) delta transfers instead of a shared uplink.
//
// Expected outcome (deterministic for a fixed -seed): every topology's
// final consensus metric lands within 5% of the star-synchronous final at
// equal rounds — sparse graphs mix information more slowly but the
// Metropolis–Hastings matrix is doubly stochastic, so the consensus average
// tracks the centralized trajectory — while total energy grows with the
// topology's edge count. The program exits non-zero if any topology misses
// the 5% band, so CI catches mixing regressions.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"lumos"
)

func main() {
	var (
		n      = flag.Int("n", 24, "number of devices")
		m      = flag.Int("m", 110, "number of data-graph edges")
		rounds = flag.Int("rounds", 90, "training rounds per topology")
		mcmc   = flag.Int("mcmc", 25, "MCMC tree-trimming iterations")
		seed   = flag.Int64("seed", 7, "run seed")
	)
	flag.Parse()

	g, err := lumos.Generate(lumos.GenConfig{
		Name: "topologystudy", N: *n, M: *m, Classes: 2, FeatureDim: 16, Seed: *seed,
	})
	fatal(err)
	split, err := lumos.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(*seed)))
	fatal(err)
	fmt.Printf("graph: %d devices, %d edges | zipf fleet, %d rounds per topology, seed %d\n",
		g.N, g.NumEdges(), *rounds, *seed)

	run := func(sched lumos.Sched, tp *lumos.Topology) *lumos.SimResult {
		sys, err := lumos.NewSystem(g, g, lumos.Config{
			Task: lumos.Supervised, MCMCIterations: *mcmc,
			Shards: g.N, // one device per shard: exact per-device participation
			Sched:  sched,
			Seed:   *seed,
		})
		fatal(err)
		sc := lumos.SimScenario{
			Fleet: lumos.FleetZipf, Rounds: *rounds,
			EvalEvery: -1, // final metric only: the consensus verdict
			Topology:  tp,
			Seed:      *seed,
		}
		s, err := lumos.NewSimulator(sys, sc)
		fatal(err)
		res, err := s.Run(lumos.NewSupervisedObjective(split))
		fatal(err)
		return res
	}

	star := run(lumos.SchedSync, nil)
	fmt.Printf("\n%-16s %8s %8s %12s %12s %12s %10s %9s\n",
		"topology", "edges", "degree", "wallclock(s)", "bytes", "energy(J)", "final acc", "vs star")

	fmt.Printf("%-16s %8s %8s %12.3f %12d %12.3f %10.4f %9s\n",
		"star (sync)", "-", "-", star.WallClock, star.TotalBytes, star.TotalEnergy,
		star.FinalMetric, "-")

	specs := []string{"ring:2", "k-regular:4", "ba:2"}
	ok := true
	for _, spec := range specs {
		sp, err := lumos.ParseTopologySpec(spec)
		fatal(err)
		tp, err := sp.Build(g.N, *seed)
		fatal(err)
		res := run(lumos.SchedGossip, tp)
		gap := math.Abs(res.FinalMetric-star.FinalMetric) / math.Max(star.FinalMetric, 1e-9)
		within := gap <= 0.05
		verdict := fmt.Sprintf("%.1f%%", 100*gap)
		if !within {
			verdict += " MISS"
			ok = false
		}
		meanDeg := 2 * float64(tp.NumEdges()) / float64(tp.N())
		fmt.Printf("%-16s %8d %8.1f %12.3f %12d %12.3f %10.4f %9s\n",
			tp.Name(), tp.NumEdges(), meanDeg, res.WallClock, res.TotalBytes,
			res.TotalEnergy, res.FinalMetric, verdict)
	}

	if !ok {
		fmt.Fprintln(os.Stderr, "topologystudy: a topology's final metric fell outside 5% of the star-synchronous baseline")
		os.Exit(1)
	}
	fmt.Printf("\nevery topology within 5%% of the star-synchronous final at equal rounds\n")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "topologystudy:", err)
		os.Exit(1)
	}
}
