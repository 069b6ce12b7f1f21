package core

import (
	"math/rand"
	"runtime"
	"testing"

	"lumos/internal/graph"
)

// roundSystem builds a supervised system with one device per shard, the
// configuration partial-participation rounds are exact for.
func roundSystem(t testing.TB, seed int64) (*System, *graph.NodeSplit) {
	t.Helper()
	g := engineGraph(t, seed)
	split, err := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, g, Config{
		Task: Supervised, MCMCIterations: 10, Shards: g.N, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, split
}

// roundSession builds roundSystem's system and opens the supervised session
// the round tests step.
func roundSession(t testing.TB, seed int64) (*System, *graph.NodeSplit, *Session) {
	t.Helper()
	sys, split := roundSystem(t, seed)
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	return sys, split, sess
}

// TestStepRoundFullParticipation: with everyone present, a round activates
// every shard and applies no stale gradients.
func TestStepRoundFullParticipation(t *testing.T) {
	sys, _, sess := roundSession(t, 31)
	active := make([]bool, sys.G.N)
	for i := range active {
		active[i] = true
	}
	out, err := sess.StepRound(RoundPlan{Active: active, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped {
		t.Fatal("full round skipped")
	}
	if out.ActiveShards != sys.ShardCount() {
		t.Fatalf("active shards %d, want %d", out.ActiveShards, sys.ShardCount())
	}
	if out.StaleApplied != 0 || out.ExpiredParts != 0 {
		t.Fatalf("fresh full round reported stale state: %+v", out)
	}
	if out.Loss <= 0 {
		t.Fatalf("loss %v", out.Loss)
	}
}

// TestStepRoundPartialAndExpiry: an absent device's cached contribution
// serves for PartialTTL rounds, then expires.
func TestStepRoundPartialAndExpiry(t *testing.T) {
	sys, _, sess := roundSession(t, 32)
	n := sys.G.N
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if _, err := sess.StepRound(RoundPlan{Active: all, TTL: 2}); err != nil {
		t.Fatal(err)
	}
	// Take the second half of the fleet offline for three rounds with TTL 2:
	// rounds 1 and 2 serve caches, round 3 expires them.
	half := make([]bool, n)
	for i := 0; i < n/2; i++ {
		half[i] = true
	}
	var expired int
	for r := 0; r < 3; r++ {
		out, err := sess.StepRound(RoundPlan{Active: half, TTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.ActiveShards >= sys.ShardCount() {
			t.Fatalf("round %d: all shards active despite half fleet offline", r)
		}
		if r < 2 && out.ExpiredParts != 0 {
			t.Fatalf("round %d: caches expired before TTL: %+v", r, out)
		}
		expired += out.ExpiredParts
	}
	if expired == 0 {
		t.Fatal("caches never expired past the TTL")
	}
	sess.FinishRounds()
}

// TestStepRoundDelayedGradients: a delayed device's gradient surfaces as a
// stale application in a later round.
func TestStepRoundDelayedGradients(t *testing.T) {
	sys, _, sess := roundSession(t, 33)
	n := sys.G.N
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	delays := make([]int, n)
	delays[0] = 2
	if out, err := sess.StepRound(RoundPlan{Active: all, Delays: delays, TTL: 2}); err != nil || out.StaleApplied != 0 {
		t.Fatalf("round 0: out=%+v err=%v", out, err)
	}
	if out, err := sess.StepRound(RoundPlan{Active: all, TTL: 2}); err != nil || out.StaleApplied != 0 {
		t.Fatalf("round 1: out=%+v err=%v", out, err)
	}
	out, err := sess.StepRound(RoundPlan{Active: all, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.StaleApplied != 1 {
		t.Fatalf("round 2: stale applied %d, want 1", out.StaleApplied)
	}
	sess.FinishRounds()
}

// TestStepRoundSkips: a round whose participants hold no training vertex is
// skipped rather than producing a degenerate loss.
func TestStepRoundSkips(t *testing.T) {
	sys, split, sess := roundSession(t, 34)
	active := make([]bool, sys.G.N)
	// Activate exactly one non-training device.
	inTrain := make(map[int]bool, len(split.Train))
	for _, v := range split.Train {
		inTrain[v] = true
	}
	for v := 0; v < sys.G.N; v++ {
		if !inTrain[v] {
			active[v] = true
			break
		}
	}
	out, err := sess.StepRound(RoundPlan{Active: active, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Skipped {
		t.Fatal("round with no training vertex not skipped")
	}
}

// TestStepRoundValidation covers the argument guards.
func TestStepRoundValidation(t *testing.T) {
	sys, _, sess := roundSession(t, 35)
	if _, err := sess.StepRound(RoundPlan{Active: make([]bool, 3), TTL: 2}); err == nil {
		t.Fatal("wrong active length accepted")
	}
	if _, err := sess.StepRound(RoundPlan{Active: make([]bool, sys.G.N), Delays: make([]int, 3), TTL: 2}); err == nil {
		t.Fatal("wrong delays length accepted")
	}
	if _, err := sys.NewSession(NewSupervisedObjective(nil)); err == nil {
		t.Fatal("nil split accepted")
	}
}

// TestDeviceUploadBytes: every device uploads at least its gradient and loss
// share, and retained neighbors add embedding pushes.
func TestDeviceUploadBytes(t *testing.T) {
	sys, _ := roundSystem(t, 36)
	up := sys.DeviceUploadBytes()
	if len(up) != sys.G.N {
		t.Fatalf("%d upload sizes for %d devices", len(up), sys.G.N)
	}
	model := sys.ModelBytes()
	for v, b := range up {
		if b < model {
			t.Fatalf("device %d uploads %d bytes, below the %d-byte gradient", v, b, model)
		}
	}
}

// TestDefaultShardCountAutoTune checks the CPU-aware default.
func TestDefaultShardCountAutoTune(t *testing.T) {
	got := defaultShardCount()
	want := 4 * runtime.NumCPU()
	if want < DefaultShards {
		want = DefaultShards
	}
	if got != want {
		t.Fatalf("defaultShardCount() = %d, want %d", got, want)
	}
}
