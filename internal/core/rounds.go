package core

// This file holds the round-level outcome type and the task-agnostic
// round helpers consumed by Session.StepRound — the driving surface
// internal/sim uses: a discrete-event simulator samples participants each
// round, derives per-device gradient delays from simulated message
// arrivals, and steps the engine one round at a time instead of running a
// whole epoch loop. Everything here stays bit-deterministic for a fixed
// seed and participation schedule, for every Workers value.

// RoundOutcome reports one partial-participation training round.
type RoundOutcome struct {
	// Loss is the round's training loss (0 when Skipped).
	Loss float64
	// Skipped is set when the round had no usable training signal (no
	// participant holds a training vertex); the round clock still advanced
	// and due stale gradients were applied.
	Skipped bool
	// ActiveShards is the number of shards that computed a fresh update.
	ActiveShards int
	// StaleApplied counts gradients computed in earlier rounds that were
	// folded into the model this round.
	StaleApplied int
	// ExpiredParts counts absent shards whose cached pooling contribution
	// aged past the TTL and was dropped from the forward pass.
	ExpiredParts int
	// ValMetric is the objective's validation metric when ValEvaluated is
	// set — reported only for rounds whose plan asked to Evaluate (and when
	// the objective carries validation data). It feeds round-driven model
	// selection: the best-validation snapshot is restored by FinishRounds.
	ValMetric    float64
	ValEvaluated bool
}

// mapDevices lifts per-device participation and delays to shard granularity:
// a shard is active when at least half of its devices (and at least one) are
// present, and an active shard's delay is the largest delay among its
// present devices. With one device per shard the mapping is exact. A nil
// active mask means full participation; with nil delays too, the engine's
// own all-active fast path (nil, nil) is selected. The returned slices are
// the engine's scratch, good until the next call.
func (e *engine) mapDevices(active []bool, delays []int) ([]bool, []int) {
	if active == nil && delays == nil {
		return nil, nil
	}
	sa, sd := e.shardActive, e.shardDelay
	for i, sh := range e.shards {
		sd[i] = 0
		on := 0
		for v := sh.lo; v < sh.hi; v++ {
			if active == nil || active[v] {
				on++
			}
		}
		sa[i] = on > 0 && 2*on >= sh.hi-sh.lo
		if !sa[i] || delays == nil {
			continue
		}
		for v := sh.lo; v < sh.hi; v++ {
			if (active == nil || active[v]) && delays[v] > sd[i] {
				sd[i] = delays[v]
			}
		}
	}
	return sa, sd
}
