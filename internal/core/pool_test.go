package core

import (
	"fmt"
	"math"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/nn"
	"lumos/internal/tensor"
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

// classBytes is what the engine pool's buffers for matrices of the given
// shapes occupy, size-class rounding included.
func classBytes(shapes ...[2]int) int64 {
	p := autodiff.NewPool()
	ms := make([]*tensor.Matrix, len(shapes))
	for i, s := range shapes {
		ms[i] = p.Get(s[0], s[1])
	}
	for _, m := range ms {
		p.Put(m)
	}
	return p.Bytes()
}

// TestRoundKeepsWhatBackwardReads: between its forward and its backward a
// fresh shard keeps only what the backward reads. After one GCN shard's
// training forward its tape holds exactly four buffers: the hidden
// activation (BiasReLUDropout's output), its dropout mask, the first
// layer's sparse-matmul workspace and the partial. After a partial round on
// one worker, the engine pool holds at most the fresh shards' saved bytes,
// plus one shard's full working set (its tape at the end of a forward and
// backward, with its view gradients), plus the queued delayed gradients,
// all within 4/3: what the round had in flight at once, not every fresh
// shard's activations and view gradients.
func TestRoundKeepsWhatBackwardReads(t *testing.T) {
	sys, _, sess := roundSession(t, 41)
	e := sys.eng
	e.workers = 1
	cfg := sys.Encoder.Cfg
	if cfg.Backbone != nn.GCN || cfg.Layers != 2 || cfg.Dropout == 0 {
		t.Fatalf("want a two-layer GCN with dropout, have %+v", cfg)
	}

	// One shard: the largest.
	big := 0
	for i, sh := range e.shards {
		if sh.work > e.shards[big].work {
			big = i
		}
	}
	sh := e.shards[big]
	rows := sh.x.Rows()
	e.shardForward(big, true)
	saved := classBytes([2]int{rows, cfg.Hidden}, [2]int{rows, cfg.Hidden}, [2]int{1, cfg.Hidden}, [2]int{len(sh.verts), cfg.OutDim})
	if got := e.tapes[big].Bytes(); got != saved {
		t.Fatalf("shard %d (%d rows) holds %d B after its training forward; its two %dx%d activation buffers, workspace and partial take %d B",
			big, rows, got, rows, cfg.Hidden, saved)
	}
	e.tapes[big].Reset()

	out, err := sess.StepRound(sparseRoundPlans(sys.G.N)[1])
	if err != nil || out.Skipped || out.ActiveShards == len(e.shards) {
		t.Fatalf("want a partial round: %+v, err %v", out, err)
	}
	pool := e.pool.Bytes()
	var queued int64
	for _, dg := range e.queue {
		for _, g := range dg.grads {
			queued += classBytes([2]int{g.Rows(), g.Cols()})
		}
	}
	var fresh []int
	for i, p := range e.parts {
		if p != nil {
			fresh = append(fresh, i)
		}
	}

	// Each fresh shard's saved bytes, and its full working set on a tape of
	// its own.
	var views int64
	for _, vp := range e.viewParams[0] {
		views += classBytes([2]int{vp.V.Data.Rows(), vp.V.Data.Cols()})
	}
	var savedSum, working int64
	for _, i := range fresh {
		e.shardForward(i, true)
		savedSum += e.tapes[i].Bytes()
		e.tapes[i].Reset()
		pooled := e.tapes[i]
		e.tapes[i] = autodiff.NewTape()
		p := e.shardForward(i, true)
		p.BackwardWithGradient(tensor.Full(p.Data.Rows(), p.Data.Cols(), 1))
		working = max(working, e.tapes[i].Bytes()+views)
		e.tapes[i] = pooled
		for _, vp := range e.viewParams[i] {
			vp.V.ZeroGrad()
		}
	}
	bound := (savedSum + working + queued) * 4 / 3
	if pool > bound {
		t.Fatalf("the pool holds %d B after the round; %d fresh shards saved %d B, one working set is %d B and %d B of gradients are queued: bound %d B",
			pool, len(fresh), savedSum, working, queued, bound)
	}
	t.Logf("%d fresh of %d shards: pool %d B ≤ (%d saved + %d working set + %d queued) × 4/3 = %d B",
		len(fresh), len(e.shards), pool, savedSum, working, queued, bound)
}
