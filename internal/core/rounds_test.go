package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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

// noTermRoundGolden is TestNoTermRound's loss per round and parameter hash
// after the second, recorded when the zero pooled value and the head above
// it were built without a tape.
var noTermRoundGolden = struct {
	losses []float64
	params uint64
}{
	losses: []float64{0x1.62e42fefa39efp-01, 0x1.61e498c492188p-01},
	params: 0xeef644eeec12351d,
}

// TestNoTermRound pins the round whose combine has no term: at Shards=5 the
// present devices leave every shard below half participation, and no shard
// has a live cache, so the pooled embeddings are all zero and only the head
// learns. Two such rounds run back to back (the second on a reused tape).
func TestNoTermRound(t *testing.T) {
	g := engineGraph(t, 36)
	sys, split := supervisedSystem(t, g, Config{MCMCIterations: 10, Shards: 5, Workers: 2, Seed: 36})
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for r := 0; r < 2; r++ {
		// The r-th training vertex of every shard is its only present device.
		active := make([]bool, g.N)
		for _, sh := range sys.eng.shards {
			seen := 0
			for v := sh.lo; v < sh.hi; v++ {
				if split.IsTrain[v] {
					if seen == r {
						active[v] = true
						break
					}
					seen++
				}
			}
		}
		out, err := sess.StepRound(RoundPlan{Active: active, TTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.Skipped || out.ActiveShards != 0 {
			t.Fatalf("round %d: skipped=%v with %d active shards; want a trained round with none", r, out.Skipped, out.ActiveShards)
		}
		losses = append(losses, out.Loss)
	}
	h := fnv.New64a()
	var word [8]byte
	for _, p := range sys.Params() {
		for _, x := range p.V.Data.Data() {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
			h.Write(word[:])
		}
	}
	if got := h.Sum64(); got != noTermRoundGolden.params {
		t.Errorf("parameter hash %#x, want %#x", got, noTermRoundGolden.params)
	}
	requireIdentical(t, "no-term round losses", losses, noTermRoundGolden.losses)
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

// TestDefaultShardCountIsHostIndependent: an unset Shards partitions the
// forest into DefaultShards shards whatever the host's CPU count and the
// worker-pool size, capped at the device count.
func TestDefaultShardCountIsHostIndependent(t *testing.T) {
	g := engineGraph(t, 15)
	for _, workers := range []int{1, 2 * runtime.NumCPU(), 64} {
		sys, err := NewSystem(g, g, Config{Epochs: 1, MCMCIterations: 5, Workers: workers, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.ShardCount(); got != DefaultShards {
			t.Fatalf("Workers=%d: default partition has %d shards, want %d", workers, got, DefaultShards)
		}
	}
	small := testGraph(t, 12, 20, 2, 15)
	sys, err := NewSystem(small, small, Config{Epochs: 1, MCMCIterations: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ShardCount(); got != small.N {
		t.Fatalf("%d-device default partition has %d shards, want one per device", small.N, got)
	}
}
