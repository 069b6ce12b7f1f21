package eval

import (
	"fmt"

	"lumos/internal/core"
	"lumos/internal/rng"
	"lumos/internal/sim"
	"lumos/internal/topo"
)

// This runner replaces the single-number fed.CostModel estimate that Fig. 8
// reports (TrainStats.SimEpochTime) with a full simulated timeline from
// internal/sim: the analytic model supplies the per-event costs, and the
// discrete-event simulator plays them out over a heterogeneous, churning
// fleet under both scheduling disciplines. Options.Task selects the
// objective — the simulator drives a core.Session, so node classification
// and link prediction run through the same machinery.

// SimTimelineResult summarizes one dataset×discipline simulation.
type SimTimelineResult struct {
	Dataset string
	Task    string
	Sched   string
	// Metric names the evaluation metric the timeline carries ("accuracy"
	// for node classification, "AUC" for link prediction).
	Metric string
	Rounds int
	// WallClock is the simulated seconds to commit every round.
	WallClock float64
	// TotalBytes is the scenario's total wire traffic.
	TotalBytes int64
	// MeanParticipants is the average per-round participant count.
	MeanParticipants float64
	// TotalEnergy is the fleet's energy spend across the run, in joules
	// (compute at profile-scaled power plus radio bytes; see
	// fed.CostModel.Energy).
	TotalEnergy float64
	// FinalMetric is the objective's test metric after the terminal
	// barrier.
	FinalMetric float64
	// Timeline carries the per-round records for external plotting.
	Timeline []sim.RoundStats
}

// RunSimTimeline simulates the scenario once per scheduling discipline per
// configured dataset (Options.Task objective, first configured backbone),
// with one device per shard so participation is exact. The async runs use
// Options.Staleness when set (default 2); when Options.Topology is set, a
// decentralized gossip run over that contact graph joins the sync and async
// rows.
func RunSimTimeline(opts Options, sc sim.Scenario) ([]SimTimelineResult, error) {
	staleness := opts.Staleness
	if staleness == 0 {
		staleness = 2
	}
	scheds := []core.Sched{core.SchedSync, core.SchedAsync}
	if opts.Topology != "" {
		scheds = append(scheds, core.SchedGossip)
	}
	var out []SimTimelineResult
	err := opts.forEach(func(d *dataset) error {
		// The task decides the split, the training graph, and the objective
		// the session trains. An objective binds to one system, so each
		// discipline below gets a fresh one from newObjective.
		trainGraph, newObjective, err := core.SplitForTask(d.g, opts.Task, rng.New(opts.Seed^1))
		if err != nil {
			return err
		}
		for _, sched := range scheds {
			cfg := opts.config(opts.Task, opts.Backbones[0])
			cfg.Shards = d.g.N // one device per shard: exact participation
			cfg.Sched, cfg.Staleness = sched, 0
			if sched == core.SchedAsync {
				cfg.Staleness = staleness
			}
			dsc := sc
			if sched == core.SchedGossip {
				spec, err := topo.ParseSpec(opts.Topology)
				if err != nil {
					return err
				}
				tp, err := spec.Build(d.g.N, opts.Seed)
				if err != nil {
					return fmt.Errorf("eval: timeline %s/gossip: %w", d.name, err)
				}
				dsc.Topology = tp
			}
			sys, err := core.NewSystem(trainGraph, d.g, cfg)
			if err != nil {
				return fmt.Errorf("eval: timeline %s/%s: %w", d.name, sched, err)
			}
			simulator, err := sim.New(sys, dsc)
			if err != nil {
				return err
			}
			r, err := simulator.Run(newObjective())
			if err != nil {
				return fmt.Errorf("eval: timeline %s/%s: %w", d.name, sched, err)
			}
			out = append(out, SimTimelineResult{
				Dataset: d.name, Task: opts.Task.String(), Sched: sched.String(),
				Metric: r.Metric, Rounds: len(r.Timeline),
				WallClock: r.WallClock, TotalBytes: r.TotalBytes,
				MeanParticipants: r.MeanParticipants,
				TotalEnergy:      r.TotalEnergy,
				FinalMetric:      r.FinalMetric,
				Timeline:         r.Timeline,
			})
		}
		return nil
	})
	return out, err
}

// SimTimelineTable renders the per-discipline summaries.
func SimTimelineTable(rs []SimTimelineResult) *Table {
	t := &Table{
		Title:   "Simulated timelines: sync vs async scheduling over a heterogeneous churning fleet",
		Columns: []string{"dataset", "task", "sched", "rounds", "wallclock(s)", "bytes", "energy(J)", "avg participants", "metric", "final"},
	}
	for _, r := range rs {
		t.AddRow(r.Dataset, r.Task, r.Sched, r.Rounds,
			fmt.Sprintf("%.3f", r.WallClock), r.TotalBytes,
			fmt.Sprintf("%.3f", r.TotalEnergy),
			fmt.Sprintf("%.1f", r.MeanParticipants), r.Metric, r.FinalMetric)
	}
	return t
}

// SimTimelineCSVTable renders every round of every timeline for plotting.
func SimTimelineCSVTable(rs []SimTimelineResult) *Table {
	t := &Table{
		Title:   "Simulated timelines: per-round records",
		Columns: []string{"dataset", "task", "sched", "round", "start_s", "commit_s", "available", "participants", "late", "stale", "dropped", "bytes", "energy_j", "loss", "metric"},
	}
	for _, r := range rs {
		for _, rr := range r.Timeline {
			metric := ""
			if rr.Evaluated {
				metric = fmt.Sprintf("%.4f", rr.Metric)
			}
			t.AddRow(r.Dataset, r.Task, r.Sched, rr.Round,
				fmt.Sprintf("%.4f", rr.Start), fmt.Sprintf("%.4f", rr.Commit),
				rr.Available, rr.Participants, rr.Late, rr.StaleApplied, rr.Dropped,
				rr.Bytes, fmt.Sprintf("%.4f", rr.Energy), fmt.Sprintf("%.4f", rr.Loss), metric)
		}
	}
	return t
}
