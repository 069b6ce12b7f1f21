package core

import (
	"math/rand"
	"testing"

	"lumos/internal/graph"
)

// TestNewSessionValidation covers the session construction guards: nil
// objectives, task mismatches, nil splits, and objectives bound to another
// system.
func TestNewSessionValidation(t *testing.T) {
	g := engineGraph(t, 51)
	sys, err := NewSystem(g, g, Config{Task: Supervised, Epochs: 1, MCMCIterations: 10, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewSession(nil); err == nil {
		t.Fatal("nil objective accepted")
	}
	if _, err := sys.NewSession(NewUnsupervisedObjective(nil)); err == nil {
		t.Fatal("unsupervised objective accepted by supervised system")
	}
	if _, err := sys.NewSession(NewSupervisedObjective(nil)); err == nil {
		t.Fatal("nil node split accepted")
	}
	short := &graph.NodeSplit{Train: []int{0}, IsTrain: make([]bool, 3)}
	if _, err := sys.NewSession(NewSupervisedObjective(short)); err == nil {
		t.Fatal("mis-sized node split accepted")
	}
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	obj := NewSupervisedObjective(split)
	if _, err := sys.NewSession(obj); err != nil {
		t.Fatal(err)
	}
	// Rebinding the same objective to the same system is fine...
	if _, err := sys.NewSession(obj); err != nil {
		t.Fatalf("same-system rebind rejected: %v", err)
	}
	// ...but binding it to a different system would let two sessions fight
	// over the objective's state.
	other, err := NewSystem(g, g, Config{Task: Supervised, Epochs: 1, MCMCIterations: 10, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.NewSession(obj); err == nil {
		t.Fatal("objective rebound to a different system")
	}

	// Edge splits from a different graph must be rejected at bind time —
	// they would train fine and then panic inside evaluation.
	big := testGraph(t, 200, 900, 2, 51)
	bigSplit, err := graph.SplitEdges(big, 0.8, 0.05, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	usys, err := NewSystem(g, g, Config{Task: Unsupervised, Epochs: 1, MCMCIterations: 10, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := usys.NewSession(NewUnsupervisedObjective(bigSplit)); err == nil {
		t.Fatal("edge split from a larger graph accepted")
	}
	bad := &graph.EdgeSplit{Test: [][2]int{{0, g.N + 5}}}
	if _, err := usys.NewSession(NewUnsupervisedObjective(bad)); err == nil {
		t.Fatal("out-of-range edge endpoint accepted")
	}
}

// TestSplitForTask covers the task switch the lumos-sim CLI uses.
func TestSplitForTask(t *testing.T) {
	g := engineGraph(t, 56)
	tg, newObj, err := SplitForTask(g, Supervised, rand.New(rand.NewSource(56)))
	if err != nil || tg != g {
		t.Fatalf("supervised SplitForTask: graph %v, err %v", tg, err)
	}
	if obj := newObj(); obj.Task() != Supervised || obj.MetricName() != "accuracy" {
		t.Fatalf("supervised factory built %v/%v", obj.Task(), obj.MetricName())
	}
	tg, newObj, err = SplitForTask(g, Unsupervised, rand.New(rand.NewSource(56)))
	if err != nil {
		t.Fatal(err)
	}
	if tg == g || tg.N != g.N || tg.NumEdges() >= g.NumEdges() {
		t.Fatalf("unsupervised SplitForTask did not return a training-edge subgraph")
	}
	if obj := newObj(); obj.Task() != Unsupervised || !obj.hasTestMetric() {
		t.Fatal("unsupervised factory built an objective without test edges")
	}
	if _, _, err := SplitForTask(g, Task(99), rand.New(rand.NewSource(56))); err == nil {
		t.Fatal("unknown task accepted")
	}
}

// TestSessionMatchesTrainers: driving a session by hand — Step loop,
// FinishRounds, Stats — must be exactly the TrainSupervised /
// TrainUnsupervised behavior, losses and traffic included.
func TestSessionMatchesTrainers(t *testing.T) {
	g := engineGraph(t, 53)
	cfg := Config{Epochs: 5, MCMCIterations: 20, Seed: 53}

	// The splits must match the supervisedLosses/unsupervisedLosses helpers
	// (fixed split seed 9) for the traces to be comparable.
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	supCfg := cfg
	supCfg.Task = Supervised
	sys, err := NewSystem(g, g, supCfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sess.FinishRounds()
	manual := sess.Stats()
	requireIdentical(t, "manual session vs TrainSupervised",
		manual.Losses, supervisedLosses(t, g, cfg))
	if len(manual.EpochTraffic) != cfg.Epochs {
		t.Fatalf("session recorded %d traffic epochs, want %d", len(manual.EpochTraffic), cfg.Epochs)
	}
	if manual.AvgCommRoundsPerDevice <= 0 || manual.SimEpochTime <= 0 {
		t.Fatal("session stats missing the Fig. 8 summary metrics")
	}

	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	unsCfg := cfg
	unsCfg.Task = Unsupervised
	usys, err := NewSystem(es.TrainGraph, g, unsCfg)
	if err != nil {
		t.Fatal(err)
	}
	usess, err := usys.NewSession(NewUnsupervisedObjective(es))
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if _, err := usess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	usess.FinishRounds()
	baseline := unsupervisedLosses(t, g, cfg)
	requireIdentical(t, "manual session vs TrainUnsupervised",
		usess.Stats().Losses, baseline)
	if m, err := usess.TestMetric(); err != nil || m <= 0 {
		t.Fatalf("session AUC = %v, %v", m, err)
	}
	if usess.MetricName() != "AUC" {
		t.Fatalf("unsupervised metric named %q", usess.MetricName())
	}
}

// TestUnsupervisedStepRound drives link-prediction rounds — the path the
// session redesign opened — through partial participation, cache expiry,
// and skipped rounds.
func TestUnsupervisedStepRound(t *testing.T) {
	g := engineGraph(t, 54)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(54)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(es.TrainGraph, g, Config{
		Task: Unsupervised, MCMCIterations: 10, Shards: g.N, Seed: 54,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(NewUnsupervisedObjective(es))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	out, err := sess.StepRound(RoundPlan{Active: all, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped || out.Loss <= 0 || out.ActiveShards != len(sys.eng.shards) {
		t.Fatalf("full unsupervised round malformed: %+v", out)
	}
	// Half the fleet offline: fewer active shards, positive loss, caches
	// serve then expire past the TTL.
	half := make([]bool, n)
	for i := 0; i < n/2; i++ {
		half[i] = true
	}
	expired := 0
	for r := 0; r < 3; r++ {
		out, err := sess.StepRound(RoundPlan{Active: half, TTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.Skipped || out.ActiveShards >= len(sys.eng.shards) {
			t.Fatalf("round %d malformed under half fleet: %+v", r, out)
		}
		expired += out.ExpiredParts
	}
	if expired == 0 {
		t.Fatal("absent shards' caches never expired past the TTL")
	}
	// Nobody online: the round is skipped but the clock still advances.
	out, err = sess.StepRound(RoundPlan{Active: make([]bool, n), TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Skipped {
		t.Fatal("empty round not skipped")
	}
	// Plan validation.
	if _, err := sess.StepRound(RoundPlan{Active: make([]bool, 3)}); err == nil {
		t.Fatal("wrong active length accepted")
	}
	if _, err := sess.StepRound(RoundPlan{Delays: make([]int, 3)}); err == nil {
		t.Fatal("wrong delays length accepted")
	}
	if _, err := sess.StepRound(RoundPlan{TTL: -1}); err == nil {
		t.Fatal("negative TTL accepted")
	}
	sess.FinishRounds()
}

// TestSessionFullParticipationRoundMatchesStep: StepRound with a nil Active
// mask is exactly a full-participation Step at the engine level — the loss
// trajectory matches the epoch trainer's bit for bit.
func TestSessionFullParticipationRoundMatchesStep(t *testing.T) {
	g := engineGraph(t, 55)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Session {
		sys, err := NewSystem(g, g, Config{Task: Supervised, MCMCIterations: 10, Shards: 16, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sys.NewSession(NewSupervisedObjective(split))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a, b := build(), build()
	var stepLosses, roundLosses []float64
	for i := 0; i < 4; i++ {
		l, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		stepLosses = append(stepLosses, l)
		out, err := b.StepRound(RoundPlan{})
		if err != nil {
			t.Fatal(err)
		}
		roundLosses = append(roundLosses, out.Loss)
	}
	requireIdentical(t, "nil-Active StepRound vs Step", roundLosses, stepLosses)
}

// TestStepRoundModelSelection: a plan with Evaluate set surfaces the
// objective's validation metric in the outcome and drives best-snapshot
// selection, so round-driven runs (the simulator) get the same model
// selection the epoch path has — FinishRounds must restore the weights of
// the best-validation round.
func TestStepRoundModelSelection(t *testing.T) {
	g := engineGraph(t, 57)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(57)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, g, Config{Task: Supervised, MCMCIterations: 10, Shards: 16, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	best := -1.0
	for i := 0; i < 6; i++ {
		out, err := sess.StepRound(RoundPlan{Evaluate: i%2 == 1}) // evaluate every other round
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if out.ValEvaluated {
				t.Fatalf("round %d: validation ran without Evaluate", i)
			}
			continue
		}
		if !out.ValEvaluated {
			t.Fatalf("round %d: Evaluate plan reported no validation metric", i)
		}
		if out.ValMetric > best {
			best = out.ValMetric
		}
	}
	if best < 0 {
		t.Fatal("no validation metric observed")
	}
	sess.FinishRounds()
	got, ok, err := sess.ValidationMetric()
	if err != nil || !ok {
		t.Fatalf("post-restore validation metric: %v ok=%v", err, ok)
	}
	if got != best {
		t.Fatalf("restored model's validation metric %v, want best observed %v", got, best)
	}
}

// TestStepReturnsValidationError: a validation metric that cannot be
// computed (no validation negatives, so ROC-AUC sees one class) fails Step
// the way it fails an evaluating StepRound, instead of skipping model
// selection.
func TestStepReturnsValidationError(t *testing.T) {
	g := testGraph(t, 150, 900, 2, 5)
	es, err := graph.SplitEdges(g, 0.8, 0.05, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	es.ValNeg = nil
	sys, err := NewSystem(es.TrainGraph, g, Config{Task: Unsupervised, MCMCIterations: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(NewUnsupervisedObjective(es))
	if err != nil {
		t.Fatal(err)
	}
	_, roundErr := sess.StepRound(RoundPlan{Evaluate: true})
	if roundErr == nil {
		t.Fatal("StepRound{Evaluate: true} without validation negatives succeeded")
	}
	_, stepErr := sess.Step()
	if stepErr == nil {
		t.Fatal("Step without validation negatives succeeded")
	}
	if stepErr.Error() != roundErr.Error() {
		t.Fatalf("Step error %q, StepRound error %q", stepErr, roundErr)
	}
	if sess.bestSnap != nil {
		t.Fatal("a model was selected without a validation metric")
	}
}

// TestParseTask mirrors the ParseSched contract for the new task parser.
func TestParseTask(t *testing.T) {
	for name, want := range map[string]Task{
		"supervised": Supervised, "node": Supervised,
		"unsupervised": Unsupervised, "link": Unsupervised,
	} {
		got, err := ParseTask(name)
		if err != nil || got != want {
			t.Fatalf("ParseTask(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseTask("clustering"); err == nil {
		t.Fatal("unknown task parsed")
	}
}
