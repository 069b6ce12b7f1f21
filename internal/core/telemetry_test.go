package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/obs"
)

// TestDisabledTelemetryAllocBudget pins the telemetry contract the package
// doc promises: with Config.Metrics and Config.Tracer nil (the default), the
// instrumented Session.Step path allocates exactly what the uninstrumented
// one did — the epoch allocation budget holds unchanged. scripts/ci.sh runs
// this as a named gate.
func TestDisabledTelemetryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	// Metrics and Tracer deliberately omitted: this is the disabled path.
	sys := allocSystem(t, Unsupervised, nn.GCN)
	// A nil edge split keeps valMetric out of the steady state, exactly like
	// TestUnsupervisedSessionAllocBudget.
	sess, err := sys.NewSession(NewUnsupervisedObjective(nil))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs > epochAllocBudget {
		t.Fatalf("disabled-telemetry session step allocates %.0f times, budget %d", allocs, epochAllocBudget)
	}
}

// TestTelemetryDoesNotPerturbTraining is the enabled-path twin: attaching a
// live metrics registry and wall-clock tracer must observe training, never
// steer it — loss traces with telemetry on are bit-identical to the default
// run, for both tasks.
func TestTelemetryDoesNotPerturbTraining(t *testing.T) {
	g := engineGraph(t, 31)
	base := Config{Epochs: 5, MCMCIterations: 20, Workers: 2, Seed: 31}
	instr := base
	instr.Metrics = obs.New()
	instr.Tracer = obs.NewTracer()

	requireIdentical(t, "supervised telemetry on vs off",
		supervisedLosses(t, g, base), supervisedLosses(t, g, instr))

	instr.Metrics, instr.Tracer = obs.New(), obs.NewTracer()
	requireIdentical(t, "unsupervised telemetry on vs off",
		unsupervisedLosses(t, g, base), unsupervisedLosses(t, g, instr))
}

// TestSessionMetricsExported checks the session's registry surface: after a
// short instrumented run the promised lumos_train_* series exist and agree
// with the session's own record.
func TestSessionMetricsExported(t *testing.T) {
	g := engineGraph(t, 32)
	reg := obs.New()
	tr := obs.NewTracer()
	cfg := Config{Task: Supervised, Epochs: 4, MCMCIterations: 15, Seed: 32,
		Metrics: reg, Tracer: tr}
	sys, err := NewSystem(g, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Epochs; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sess.FinishRounds()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParsePrometheus(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["lumos_train_steps_total"]; got != float64(cfg.Epochs) {
		t.Fatalf("lumos_train_steps_total = %v, want %d", got, cfg.Epochs)
	}
	if got := vals["lumos_train_step_seconds_count"]; got != float64(cfg.Epochs) {
		t.Fatalf("lumos_train_step_seconds_count = %v, want %d", got, cfg.Epochs)
	}
	losses := sess.Stats().Losses
	if got := vals["lumos_train_loss"]; got != losses[len(losses)-1] {
		t.Fatalf("lumos_train_loss = %v, want last loss %v", got, losses[len(losses)-1])
	}
	// The wall tracer recorded one epoch span per step plus the
	// finish-rounds instant.
	if tr.Len() < cfg.Epochs+1 {
		t.Fatalf("tracer recorded %d events, want >= %d", tr.Len(), cfg.Epochs+1)
	}
}
