// Package sim is a deterministic discrete-event simulator for Lumos
// deployments over heterogeneous, churning device fleets. A virtual clock
// orders compute-done, message-arrival, delta-delivery and device join/leave
// events; per-device Profiles built through internal/fleet — synthetic
// fleets (uniform, zipf, periodic availability) or FedScale-style trace
// files (FleetTrace + Scenario.Trace) — scale the analytic fed.CostModel's
// compute, bandwidth, latency and power terms, so the cost model stays the
// single per-event cost source.
//
// Simulator.Run is one round loop for every scheduling discipline
// (Config.Sched). Each round it
//
//  1. applies churn at the round boundary and samples K of the available
//     devices (Scenario.Churn, Participation, Policy);
//  2. prices the round on the virtual clock: compute, uploads or gossip
//     deltas, queueing at shared servers and the commit rule fix the commit
//     time, wire bytes, energy, late and catch-up counts and every trace
//     span — a round with nobody online idles one base interval;
//  3. trains the model through core.Session.StepRound — absent devices'
//     vertices keep serving cached embeddings until the cache ages out;
//  4. evaluates scheduled rounds (EvalEvery and the last): the objective's
//     test metric, plus its validation metric under Scenario.ModelSelection;
//  5. records the round in the timeline, the Result totals, the metrics
//     registry and the trace.
//
// Nothing training computes feeds back into the clock, so pricing never
// touches the model; the disciplines differ only in pricing and in what
// training does. SchedSync barriers each round on the slowest participant.
// SchedAsync commits once half the participants have delivered, and a
// straggler may run up to Config.Staleness rounds behind before it blocks a
// commit — its update applies stale through the engine's delayed-gradient
// queue. A device away longer than the bound re-downloads the model first.
// With a finite CostModel.AggBytesPerSecond, uploads, re-downloads and
// broadcasts serialize through a deterministic M/G/1-style FIFO server at
// the aggregator (fleet.Server); zero capacity reproduces the
// independent-link timeline bit for bit. SchedGossip has no aggregator:
// device replicas step locally and mix with their Scenario.Topology
// neighbours after exchanging deltas over per-link servers (gossip.go).
// Every round charges each participant its compute at the profile-scaled
// power draw plus its radio bytes (fed.CostModel.Energy). Run takes a
// core.Objective, so node classification (accuracy) and link prediction
// (AUC) share all of it.
//
// Determinism: the event queue breaks time ties by push order, every random
// choice (fleet ranks, churn, participation sampling) draws from seeded
// streams with a fixed consumption pattern, and the engine underneath is
// bit-deterministic in the worker count — so the same seed and scenario
// reproduce the identical timeline and final metric for every Workers value.
package sim

import (
	"fmt"

	"lumos/internal/fed"
	"lumos/internal/fleet"
	"lumos/internal/obs"
	"lumos/internal/topo"
)

// Scenario configures one simulated deployment.
type Scenario struct {
	// Fleet names the device-profile distribution (default FleetUniform).
	Fleet Fleet
	// Trace supplies the device population when Fleet is FleetTrace —
	// typically loaded from a FedScale-style CSV file with
	// fleet.LoadTrace. The trace fleet has no synthetic fallback: naming it
	// without a trace fails validation.
	Trace *fleet.Trace
	// ZipfSkew shapes the zipf fleet's heterogeneity: the slowest device is
	// ≈2^skew × the median (default 1.2).
	ZipfSkew float64
	// TracePeriod and TraceDuty shape the periodic fleet's availability
	// cycle: each device is online TraceDuty of every TracePeriod rounds,
	// with a per-device random phase (defaults 8 and 0.75).
	TracePeriod int
	TraceDuty   float64
	// Churn is the per-round probability that an available device goes
	// offline at the round boundary (uniform/zipf fleets; the trace fleet
	// derives availability from its trace instead).
	Churn float64
	// Rejoin is the per-round probability that an offline device returns
	// (default 0.5; negative means devices never rejoin — the field's zero
	// value selects the default, so 0 cannot express "never").
	Rejoin float64
	// Participation is the fraction of available devices sampled into each
	// round, the partial-participation K/N (default 1: everyone online
	// participates).
	Participation float64
	// Rounds is the number of training rounds to simulate.
	Rounds int
	// PartialTTL bounds how many rounds an absent device's cached pooling
	// contribution keeps serving before it is dropped (default 2; negative
	// disables cache serving entirely — the field's zero value selects the
	// default, so 0 cannot express "no cache").
	PartialTTL int
	// EvalEvery evaluates test accuracy every k committed rounds (default 5;
	// negative disables mid-run evaluation — the field's zero value selects
	// the default. The final round is always evaluated).
	EvalEvery int
	// ModelSelection additionally evaluates the objective's validation
	// metric on every evaluated round (Session.StepRound's Evaluate path)
	// and restores the best validation snapshot at the end of the run —
	// round-driven model selection, mirroring the epoch trainers. Off by
	// default: the final model is then the last committed one.
	ModelSelection bool
	// Topology is the device contact graph for decentralized (gossip)
	// scheduling: required — and only meaningful — when the system's
	// Config.Sched is core.SchedGossip, with exactly one topology node per
	// device. Build one from a topo.Spec: a generator, or a measured
	// contact graph through "file:<path>". New rejects a topology under star
	// scheduling and a gossip system without one.
	Topology *topo.Topology
	// LinkDiscipline selects how concurrent deltas share a gossip link:
	// "ps" (default — egalitarian processor sharing, a fair-queued NIC) or
	// "fifo" (one delta at a time in arrival order). Star scheduling ignores
	// it: the aggregator's shared server is always FIFO.
	LinkDiscipline string
	// Policy selects the participation policy applied after availability and
	// before sampling (default PolicyUniform). PolicyEnergy skips devices
	// whose projected per-round energy spend exceeds EnergyBudget.
	Policy Policy
	// EnergyBudget is PolicyEnergy's per-round per-device budget in joules.
	// 0 auto-derives the fleet's mean projected spend; setting it under
	// PolicyUniform (or negative) fails validation.
	EnergyBudget float64
	// Cost supplies the per-event costs (zero value: fed.DefaultCostModel).
	Cost fed.CostModel
	// Tracer, when non-nil, records the simulated timeline as trace events
	// on the virtual clock — per-device compute/upload spans, aggregator
	// queueing, round commits, evaluations — for Perfetto inspection. Use
	// obs.NewVirtualTracer: wall-clock tracers don't mix with simulated
	// seconds. Run is single-threaded, so for a fixed seed the recorded
	// event sequence is byte-for-byte reproducible.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives runtime counters/gauges/histograms
	// (rounds, wire bytes, per-round and cumulative energy, aggregator
	// queueing delay). Nil — the default — is free.
	Metrics *obs.Registry
	// RoundObserver, when non-nil, receives every finished round's stats as
	// it commits (idle rounds included) — the streaming hook run recording
	// (internal/report) attaches to. Nil — the default — is free. Called
	// from the single-threaded Run loop, in round order.
	RoundObserver func(RoundStats)
	// Seed drives every random choice in the scenario (fleet ranks, churn,
	// sampling). Independent from the system's training seed.
	Seed int64
}

// Validate fills defaults and checks ranges.
func (sc *Scenario) Validate() error {
	if sc.Fleet == "" {
		sc.Fleet = FleetUniform
	}
	if _, err := ParseFleet(string(sc.Fleet)); err != nil {
		return err
	}
	if sc.Fleet == FleetTrace && sc.Trace == nil {
		// Reject up front with the full pointer instead of letting fleet
		// construction fail later (or worse, silently running uniform).
		_, err := sc.Source()
		return err
	}
	if sc.ZipfSkew == 0 {
		sc.ZipfSkew = 1.2
	}
	if sc.ZipfSkew < 0 {
		return fmt.Errorf("sim: negative zipf skew %v", sc.ZipfSkew)
	}
	if sc.TracePeriod == 0 {
		sc.TracePeriod = 8
	}
	if sc.TracePeriod < 1 {
		return fmt.Errorf("sim: trace period %d below 1 round", sc.TracePeriod)
	}
	if sc.TraceDuty == 0 {
		sc.TraceDuty = 0.75
	}
	if sc.TraceDuty <= 0 || sc.TraceDuty > 1 {
		return fmt.Errorf("sim: trace duty %v outside (0,1]", sc.TraceDuty)
	}
	if sc.Churn < 0 || sc.Churn >= 1 {
		return fmt.Errorf("sim: churn %v outside [0,1)", sc.Churn)
	}
	switch {
	case sc.Rejoin == 0:
		sc.Rejoin = 0.5
	case sc.Rejoin < 0:
		sc.Rejoin = 0 // explicit "never rejoin"
	case sc.Rejoin > 1:
		return fmt.Errorf("sim: rejoin probability %v above 1", sc.Rejoin)
	}
	if sc.Participation == 0 {
		sc.Participation = 1
	}
	if sc.Participation <= 0 || sc.Participation > 1 {
		return fmt.Errorf("sim: participation %v outside (0,1]", sc.Participation)
	}
	if sc.Rounds <= 0 {
		return fmt.Errorf("sim: scenario needs a positive round count, got %d", sc.Rounds)
	}
	switch {
	case sc.PartialTTL == 0:
		sc.PartialTTL = 2
	case sc.PartialTTL < 0:
		sc.PartialTTL = 0 // explicit "no cache serving"
	}
	switch {
	case sc.EvalEvery == 0:
		sc.EvalEvery = 5
	case sc.EvalEvery < 0:
		sc.EvalEvery = 0 // explicit "final round only"
	}
	if _, err := fleet.ParseDiscipline(sc.LinkDiscipline); err != nil {
		return err
	}
	if sc.Policy == "" {
		sc.Policy = PolicyUniform
	}
	if _, err := ParsePolicy(string(sc.Policy)); err != nil {
		return err
	}
	if sc.EnergyBudget < 0 {
		return fmt.Errorf("sim: negative energy budget %v", sc.EnergyBudget)
	}
	if sc.EnergyBudget > 0 && sc.Policy != PolicyEnergy {
		return fmt.Errorf("sim: EnergyBudget=%v requires Policy=energy", sc.EnergyBudget)
	}
	if sc.Cost == (fed.CostModel{}) {
		sc.Cost = fed.DefaultCostModel()
	}
	return sc.Cost.Validate()
}

// Policy names a participation policy — how the simulator narrows the
// available set before each round's sample.
type Policy string

const (
	// PolicyUniform samples uniformly from every available device — the
	// classic FedAvg participation model and the default.
	PolicyUniform Policy = "uniform"
	// PolicyEnergy first drops every available device whose projected
	// per-round energy spend (compute at its profile-scaled power draw plus
	// its round's radio traffic, via fed.CostModel.Energy) exceeds
	// Scenario.EnergyBudget, then samples uniformly from the rest. When the
	// filter would empty the pool, the single cheapest device stays — a
	// round must be able to happen.
	PolicyEnergy Policy = "energy"
)

// ParsePolicy parses a participation-policy name; "" selects uniform.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "uniform":
		return PolicyUniform, nil
	case "energy":
		return PolicyEnergy, nil
	default:
		return "", fmt.Errorf("sim: unknown participation policy %q (want uniform|energy)", s)
	}
}

// RoundStats is one entry of the simulated timeline.
type RoundStats struct {
	Round int
	// Start and Commit bound the round on the virtual clock, in seconds:
	// Start is the previous round's commit, Commit is when this round's
	// aggregate was applied.
	Start, Commit float64
	// Available is the online device count after churn; Participants is the
	// sampled subset that trained.
	Available, Participants int
	// Joined and Left count churn transitions at this round's boundary.
	Joined, Left int
	// Bytes on the wire this round: participant uploads plus the model
	// broadcast back to each participant.
	Bytes int64
	// Late counts participants whose update missed the commit (async only;
	// the update applies stale in a later round).
	Late int
	// CatchUps counts participants that had been away beyond the staleness
	// bound and re-downloaded the model before computing.
	CatchUps int
	// StaleApplied counts previously-delayed gradients folded in this round;
	// Dropped counts absent devices' cached pooling contributions that aged
	// out.
	StaleApplied int
	Dropped      int
	// Skipped marks a round with no usable training signal (no participant
	// carried the objective's training data, or nobody was online).
	Skipped bool
	Loss    float64
	// Energy is the fleet's energy spend this round, in joules: each
	// participant's compute time at its profile-scaled power draw plus
	// every byte it moved over the radio (fed.CostModel.Energy).
	Energy float64
	// Metric is the objective's test metric (accuracy or AUC) when
	// Evaluated is set (every EvalEvery rounds and on the final round).
	Metric    float64
	Evaluated bool
	// ValMetric is the objective's validation metric when ValEvaluated is
	// set (Scenario.ModelSelection on evaluated rounds) — the signal
	// round-driven model selection keys on.
	ValMetric    float64
	ValEvaluated bool
}

// Result is a finished simulation: the full timeline plus summary metrics.
type Result struct {
	Timeline []RoundStats
	// Metric names the objective's evaluation metric ("accuracy" or
	// "AUC") carried by the timeline's Metric fields and FinalMetric.
	Metric string
	// WallClock is the total simulated seconds to commit every round.
	WallClock float64
	// TotalBytes is the sum of per-round wire traffic.
	TotalBytes int64
	// MeanParticipants is the average per-round participant count.
	MeanParticipants float64
	// FinalMetric is the objective's test metric after the terminal
	// barrier (and, under Scenario.ModelSelection, the best-validation
	// snapshot restore).
	FinalMetric float64
	// StaleApplied and Dropped aggregate the per-round counters.
	StaleApplied int
	Dropped      int
	// TotalEnergy is the fleet's energy spend across the run, in joules;
	// DeviceEnergy breaks it down per device (cumulative, indexed by device
	// id) for straggler/fairness analysis.
	TotalEnergy  float64
	DeviceEnergy []float64
}
