package core

import (
	"fmt"
	"math"
	"testing"

	"lumos/internal/autodiff"
)

// tapeBytes sums what e's shard tapes hold.
func tapeBytes(e *engine) int64 {
	var n int64
	for _, tp := range e.tapes {
		if tp != nil {
			n += tp.Bytes()
		}
	}
	return n
}

// TestShardsHoldNoBuffersBetweenRounds: a shard holds buffers only while it
// computes. On a one-device-per-shard system, after a partial-participation
// round and again after an evaluation forward, no shard tape holds a buffer,
// and the engine pool holds no more than the same steps need on tapes that
// keep their own buffers (each shard tape a plain autodiff.NewTape, as
// before the pool): the active shards' working sets, not every shard's.
// Pooled and private tapes train bit for bit alike, on one worker and on
// four sharing the pool.
func TestShardsHoldNoBuffersBetweenRounds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			shardsHoldNoBuffers(t, workers)
		})
	}
}

func shardsHoldNoBuffers(t *testing.T, workers int) {
	// Bytes in the pool and on the shard tapes after the round and after
	// the evaluation forward.
	type sample struct {
		loss                  float64
		active                int
		roundPool, roundTapes int64
		evalPool, evalTapes   int64
	}
	sysShards := 0
	run := func(private bool) sample {
		sys, _, sess := roundSession(t, 41)
		e := sys.eng
		e.workers = workers
		if private {
			for i := range e.tapes {
				e.tapes[i] = autodiff.NewTape()
			}
		}
		out, err := sess.StepRound(sparseRoundPlans(sys.G.N)[1])
		if err != nil || out.Skipped {
			t.Fatalf("partial round: skipped=%v err=%v", out.Skipped, err)
		}
		s := sample{loss: out.Loss, active: out.ActiveShards, roundPool: e.pool.Bytes(), roundTapes: tapeBytes(e)}
		e.forward()
		s.evalPool, s.evalTapes = e.pool.Bytes(), tapeBytes(e)
		sysShards = len(e.shards)
		if s.active == 0 || s.active == len(e.shards) {
			t.Fatalf("%d of %d shards active; want a partial round", s.active, len(e.shards))
		}
		return s
	}
	pooled, private := run(false), run(true)
	if math.Float64bits(pooled.loss) != math.Float64bits(private.loss) {
		t.Fatalf("pooled tapes trained to loss %v, private tapes to %v", pooled.loss, private.loss)
	}
	if pooled.roundTapes != 0 || pooled.evalTapes != 0 {
		t.Fatalf("shard tapes hold %d B after the round and %d B after evaluation; want none", pooled.roundTapes, pooled.evalTapes)
	}
	if pooled.roundPool == 0 {
		t.Fatal("the round left nothing in the pool")
	}
	if need := private.roundTapes + private.roundPool; pooled.roundPool > need {
		t.Fatalf("pool holds %d B after the round; the active shards needed %d B", pooled.roundPool, need)
	}
	if need := private.evalTapes + private.evalPool; pooled.evalPool > need {
		t.Fatalf("pool holds %d B after evaluation; private tapes hold %d B", pooled.evalPool, need)
	}
	t.Logf("%d of %d shards active: pool %d B after the round, %d B after evaluation; private tapes %d B and %d B",
		pooled.active, sysShards, pooled.roundPool, pooled.evalPool,
		private.roundTapes+private.roundPool, private.evalTapes+private.evalPool)
}
