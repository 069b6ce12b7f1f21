package core

import (
	"fmt"
	"time"

	"lumos/internal/autodiff"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// A Session is one training run of an Objective over an assembled System —
// the task-agnostic driving surface shared by the epoch trainers
// (TrainSupervised/TrainUnsupervised are thin loops over a session), the
// discrete-event simulator, and any future runner. A session can be driven
// two ways, freely per step:
//
//   - Step() runs one full-participation synchronous epoch with
//     validation-based model selection, accumulating the TrainStats record;
//   - StepRound(plan) runs one partial-participation round under the
//     caller's participation mask, gradient delays, and cache TTL — the
//     simulator's per-round entry point.
//
// Call FinishRounds once at the end (terminal stale-gradient barrier plus
// best-validation-snapshot restore), then Stats for the summary. All the
// engine's determinism contracts hold: for a fixed seed and participation
// schedule, every Workers value produces bit-identical losses and weights.
type Session struct {
	sys *System
	obj Objective
	// lossFn is obj.loss bound once, so steady-state steps do not allocate
	// a fresh closure per epoch.
	lossFn func(pooled *autodiff.Value) *autodiff.Value

	stats    TrainStats
	bestVal  float64
	bestSnap []*tensor.Matrix
	steps    int
	rounds   int
	start    time.Time
	sealed   bool

	// tel is the session's telemetry surface, built from Config.Metrics and
	// Config.Tracer; the zero value (both nil, the default) is fully
	// disabled and free.
	tel sessionTelemetry
}

// NewSession binds an objective to the system and returns a session ready
// to step. The objective's task must match Config.Task.
func (s *System) NewSession(obj Objective) (*Session, error) {
	if obj == nil {
		return nil, fmt.Errorf("core: nil objective")
	}
	if obj.Task() != s.Cfg.Task {
		return nil, fmt.Errorf("core: %v objective on %v system", obj.Task(), s.Cfg.Task)
	}
	if err := obj.bind(s); err != nil {
		return nil, err
	}
	return &Session{
		sys: s, obj: obj, lossFn: obj.loss, bestVal: -1, start: time.Now(),
		tel: newSessionTelemetry(&s.Cfg),
	}, nil
}

// Step runs one full-participation synchronous training epoch: the
// objective draws its per-epoch samples, the engine executes the sharded
// forward/backward and applies every gradient, traffic is accounted, and —
// every Config.EvalEvery epochs and on the final configured epoch — the
// objective's validation metric drives model selection. Returns the epoch
// loss, or the validation metric's error. Only a SchedSync system steps by
// epochs: an async or gossip system trains round by round in internal/sim,
// which prices each round and derives its delays, so Step refuses it.
func (se *Session) Step() (float64, error) {
	s := se.sys
	if s.Cfg.Sched != SchedSync {
		return 0, fmt.Errorf("core: Step trains synchronous epochs only; under Sched=%v training runs round by round in internal/sim (lumos-sim -sched %v)", s.Cfg.Sched, s.Cfg.Sched)
	}
	t0 := se.tel.begin()
	before := s.Net.Snapshot()
	if !se.obj.begin(nil) {
		return 0, fmt.Errorf("core: %v objective has no training signal (empty retained sets or training split)", se.obj.Task())
	}
	loss := s.eng.step(se.obj.lossRows(), se.lossFn)
	se.obj.account(nil)
	se.stats.Losses = append(se.stats.Losses, loss)
	se.stats.EpochTraffic = append(se.stats.EpochTraffic, s.Net.Diff(before))
	epoch := se.steps
	se.steps++
	// Validation-based model selection: each device evaluates its own
	// prediction locally, so this costs one extra (eval-mode) forward.
	if epoch%s.Cfg.EvalEvery == 0 || epoch == s.Cfg.Epochs-1 {
		if _, _, err := se.selectModel(); err != nil {
			return 0, err
		}
	}
	se.tel.finishStep(se, t0, epoch, loss)
	return loss, nil
}

// RoundPlan describes one partial-participation training round.
type RoundPlan struct {
	// Active marks the devices present this round, indexed by device id
	// (nil = full participation).
	Active []bool
	// Delays postpones each participant's gradient application by the
	// given number of rounds — the caller's staleness schedule, typically
	// derived from simulated message arrival times (nil = every gradient
	// applies immediately).
	Delays []int
	// TTL bounds how many rounds an absent device's cached pooling
	// contribution keeps serving before it is dropped from the forward
	// pass.
	TTL int
	// Evaluate requests the objective's validation metric after this
	// round's update. The metric is surfaced in RoundOutcome and drives
	// best-snapshot model selection exactly like Step's EvalEvery path, so
	// round-driven runs (the simulator) can select models too; FinishRounds
	// restores the best snapshot. Costs one extra eval-mode forward.
	Evaluate bool
}

// StepRound runs one training round restricted to the plan's participants.
// Only present devices contribute samples and loss terms, send traffic, and
// compute gradients; the vertices of absent devices keep serving the pooled
// embeddings their leaves last pushed, until that cache is more than
// plan.TTL rounds old. A round whose participants carry no training signal
// is skipped: the round clock still advances, due stale gradients apply,
// and the optimizer steps as the aggregator would.
//
// Participation and delays are lifted to shard granularity: a shard is
// active when at least half of its devices are present (exact when the
// system was built with Shards == N, one device per shard — the simulator
// default), and a shard's delay is the largest among its present devices.
func (se *Session) StepRound(plan RoundPlan) (RoundOutcome, error) {
	s := se.sys
	t0 := se.tel.begin()
	if plan.Active != nil && len(plan.Active) != s.G.N {
		return RoundOutcome{}, fmt.Errorf("core: %d participation flags for %d devices", len(plan.Active), s.G.N)
	}
	if plan.Delays != nil && len(plan.Delays) != s.G.N {
		return RoundOutcome{}, fmt.Errorf("core: %d delays for %d devices", len(plan.Delays), s.G.N)
	}
	if plan.TTL < 0 {
		return RoundOutcome{}, fmt.Errorf("core: negative partial TTL %d", plan.TTL)
	}
	round := se.rounds
	se.rounds++
	if !se.obj.begin(plan.Active) {
		out := RoundOutcome{Skipped: true, StaleApplied: s.eng.skipRound()}
		if err := se.selectRound(plan, &out); err != nil {
			return RoundOutcome{}, err
		}
		se.tel.finishRound(se, t0, round, out)
		return out, nil
	}
	se.obj.account(plan.Active)
	shardActive, shardDelay := s.eng.mapDevices(plan.Active, plan.Delays)
	loss, rep := s.eng.stepRound(shardActive, shardDelay, plan.TTL, se.obj.lossRows(), se.lossFn)
	out := RoundOutcome{
		Loss:         loss,
		ActiveShards: rep.activeShards,
		StaleApplied: rep.staleApplied,
		ExpiredParts: rep.expiredParts,
	}
	if err := se.selectRound(plan, &out); err != nil {
		return RoundOutcome{}, err
	}
	se.tel.finishRound(se, t0, round, out)
	return out, nil
}

// selectRound runs the plan's optional validation evaluation through
// selectModel and reports it in out.
func (se *Session) selectRound(plan RoundPlan, out *RoundOutcome) error {
	if !plan.Evaluate {
		return nil
	}
	m, ok, err := se.selectModel()
	if ok {
		out.ValMetric, out.ValEvaluated = m, true
	}
	return err
}

// selectModel evaluates the objective's validation metric and snapshots the
// model when the metric is the best so far — model selection for Step's
// EvalEvery epochs and for rounds that ask for it. ok is false when the
// objective carries no validation data.
func (se *Session) selectModel() (m float64, ok bool, err error) {
	m, ok, err = se.obj.valMetric()
	if err != nil || !ok {
		return 0, false, err
	}
	if m > se.bestVal {
		se.bestVal = m
		se.bestSnap = nn.Snapshot(se.sys)
		se.tel.selected(m)
	}
	return m, true, nil
}

// FinishRounds seals the training run: every still-queued stale gradient
// applies in one terminal synchronous step (mirroring the final barrier of
// a bounded-staleness deployment), the best validation-selected snapshot —
// when Step-driven model selection ran — is restored, and the engine's
// buffer pool gives every free buffer back to the runtime, so evaluation
// afterwards holds its own working set instead of a training round's (a
// later session regrows what a round needs). Call it once after the last
// Step or StepRound.
func (se *Session) FinishRounds() {
	se.sys.eng.drain()
	restored := se.bestSnap != nil
	if restored {
		nn.Restore(se.sys, se.bestSnap)
		se.bestSnap = nil
	}
	se.sys.eng.trim()
	se.tel.drained(restored)
}

// Stats returns the session's accumulated training record. The first call
// seals the summary metrics (measured time, the Fig. 8 communication and
// epoch-time estimates over the Step-driven epochs); later calls return the
// same record.
func (se *Session) Stats() *TrainStats {
	if !se.sealed {
		se.sealed = true
		se.stats.MeasuredTime = time.Since(se.start)
		se.sys.finishStats(&se.stats)
	}
	return &se.stats
}

// ValidationMetric reports the objective's current validation metric; ok is
// false when the objective carries no validation data.
func (se *Session) ValidationMetric() (metric float64, ok bool, err error) {
	return se.obj.valMetric()
}

// HasTestMetric reports whether the objective carries test data, i.e.
// whether TestMetric can succeed. Scheduled-evaluation runners (the
// simulator) check it up front instead of failing mid-run.
func (se *Session) HasTestMetric() bool { return se.obj.hasTestMetric() }

// TestMetric evaluates the objective's test-side metric (accuracy or AUC)
// on the current model.
func (se *Session) TestMetric() (float64, error) { return se.obj.testMetric() }

// MetricName names the objective's evaluation metric for tables and
// timelines.
func (se *Session) MetricName() string { return se.obj.MetricName() }

// runEpochs drives Cfg.Epochs full-participation steps and seals the run —
// the shared body of TrainSupervised and TrainUnsupervised.
func (se *Session) runEpochs() (*TrainStats, error) {
	for epoch := 0; epoch < se.sys.Cfg.Epochs; epoch++ {
		if _, err := se.Step(); err != nil {
			return nil, err
		}
	}
	se.FinishRounds()
	return se.Stats(), nil
}
