package core

import (
	"fmt"
	"math"
	"slices"
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

// codeBytes is what the engine pool's byte buffer for n one-byte entries
// occupies: the classes are the matrices', counted in bytes.
func codeBytes(n int) int64 { return classBytes([2]int{1, n}) / 8 }

// savedBytes is what a fresh shard of e keeps between its training forward
// and its backward, by backbone (two layers, dropout on):
//   - GCN: the hidden activation (rows×H floats, the second layer's MatMul
//     reads it) and its dropout mask (rows×H bytes), the first layer's
//     sparse-matmul workspace (1×H) and the partial;
//   - GAT (K heads, concatenated in the hidden layer): per layer the K
//     projections (GATAttention reads them), α (K×E floats, E the shard's
//     edges) and the LeakyReLU branch bytes (K·E); the first layer's K
//     sparse-matmul workspaces (1×H each); the hidden activation
//     (rows×K·H) and its mask (rows·K·H bytes); and the partial.
func savedBytes(e *engine, i int) int64 {
	cfg := e.sys.Encoder.Cfg
	sh := e.shards[i]
	rows, h, out := sh.x.Rows(), cfg.Hidden, cfg.OutDim
	partial := [2]int{len(sh.verts), out}
	if cfg.Backbone == nn.GCN {
		return classBytes([2]int{rows, h}, [2]int{1, h}, partial) + codeBytes(rows*h)
	}
	k, edges := cfg.Heads, sh.conv.CSR().NumEdges()
	shapes := [][2]int{{rows, k * h}, partial, {k, edges}, {k, edges}}
	for range k {
		shapes = append(shapes, [2]int{rows, h}, [2]int{1, h}, [2]int{rows, out})
	}
	return classBytes(shapes...) + codeBytes(rows*k*h) + 2*codeBytes(k*edges)
}

// TestRoundKeepsWhatBackwardReads: between its forward and its backward a
// fresh shard keeps only what the backward reads, a byte per entry where a
// byte says enough. After the largest shard's training forward its tape
// holds exactly savedBytes, on both backbones: on GCN one rows×16 float
// buffer and rows×16 mask bytes (a float mask was a second float buffer);
// on GAT the projections, α, the branch and mask bytes, the hidden
// activation, the workspaces and the partial — no LeakyReLU input and no
// attention scratch. After a partial round on one worker, the view
// gradients were checked out one shard at a time (each shard's fold ran
// before the next shard's backward began), and the engine pool holds at
// most the fresh shards' saved bytes, plus one shard's full working set
// (its tape at the end of a forward and backward, with its view gradients),
// plus the queued delayed gradients, all within 4/3: what the round had in
// flight at once, not every fresh shard's activations and view gradients.
func TestRoundKeepsWhatBackwardReads(t *testing.T) {
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		t.Run(bb.String(), func(t *testing.T) {
			g := engineGraph(t, 41)
			sys, err := NewSystem(g, g, Config{Task: Supervised, Backbone: bb, MCMCIterations: 10, Shards: g.N, Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			e := sys.eng
			if cfg := sys.Encoder.Cfg; cfg.Layers != 2 || cfg.Dropout == 0 || (bb == nn.GAT && cfg.Heads < 2) {
				t.Fatalf("want a two-layer %s with dropout (and heads), have %+v", bb, cfg)
			}
			big := 0
			for i, sh := range e.shards {
				if sh.work > e.shards[big].work {
					big = i
				}
			}
			e.shardForward(big, true)
			if got, want := e.tapes[big].Bytes(), savedBytes(e, big); got != want {
				t.Fatalf("shard %d (%d rows) holds %d B after its training forward; what its backward reads takes %d B",
					big, e.shards[big].x.Rows(), got, want)
			}
			e.tapes[big].Reset()
		})
	}

	sys, _, sess := roundSession(t, 41)
	e := sys.eng
	e.workers = 1
	if cfg := sys.Encoder.Cfg; cfg.Backbone != nn.GCN {
		t.Fatalf("want a GCN round system, have %+v", cfg)
	}
	out, err := sess.StepRound(sparseRoundPlans(sys.G.N)[1])
	if err != nil || out.Skipped || out.ActiveShards == len(e.shards) {
		t.Fatalf("want a partial round: %+v, err %v", out, err)
	}
	if e.viewSetsPeak != 1 {
		t.Fatalf("phase 3 had %d shards' view gradients checked out at once on one worker; want 1 (each folded before the next backward)", e.viewSetsPeak)
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

// TestFinishRoundsTrimsThePool: once training ends the engine keeps no
// round's worth of buffers. On a run whose best snapshot is its last (so
// the restore changes no weight), FinishRounds leaves the engine pool
// holding 0 free bytes; Predictions, Embeddings and ServingTables give the
// same bits just before and just after it; and the first evaluation
// forward after it leaves the pool exactly as a fresh system's first
// evaluation leaves its own: what evaluation needs — one shard's buffers
// per size class, the shards running one at a time on one worker — and
// not the round's working set the pool held before.
func TestFinishRoundsTrimsThePool(t *testing.T) {
	g := engineGraph(t, 42)
	cfg := Config{Epochs: 3, MCMCIterations: 10, Workers: 1, Seed: 42}
	sys, split := supervisedSystem(t, g, cfg)
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	for range sys.Cfg.Epochs {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.bestSnap == nil {
		t.Fatal("no validation-selected snapshot")
	}
	for i, m := range nn.Snapshot(sys) {
		requireBitIdentical(t, fmt.Sprintf("best snapshot tensor %d against the last weights", i), sess.bestSnap[i], m)
	}
	type tables struct {
		preds, servedPreds []int
		emb, servedEmb     *tensor.Matrix
	}
	// read returns the three evaluation surfaces and what the pool held
	// right after the first of them.
	read := func(sys *System) (tb tables, evalPool int64) {
		var err error
		if tb.preds, err = sys.Predictions(); err != nil {
			t.Fatal(err)
		}
		evalPool = sys.eng.pool.Bytes()
		tb.emb = sys.Embeddings()
		tb.servedEmb, tb.servedPreds = sys.ServingTables()
		return tb, evalPool
	}
	before, _ := read(sys)
	trained := sys.eng.pool.Bytes()
	sess.FinishRounds()
	if got := sys.eng.pool.Bytes(); got != 0 {
		t.Fatalf("the pool holds %d B after FinishRounds; want 0", got)
	}
	after, evalPool := read(sys)
	requireBitIdentical(t, "embeddings across FinishRounds", before.emb, after.emb)
	requireBitIdentical(t, "served embeddings across FinishRounds", before.servedEmb, after.servedEmb)
	if !slices.Equal(before.preds, after.preds) || !slices.Equal(before.servedPreds, after.servedPreds) {
		t.Fatal("predictions changed across FinishRounds")
	}

	fresh, _ := supervisedSystem(t, g, cfg)
	_, freshPool := read(fresh)
	if evalPool != freshPool || evalPool >= trained {
		t.Fatalf("the first evaluation after FinishRounds left %d B in the pool; a fresh system's leaves %d B, and training left %d B",
			evalPool, freshPool, trained)
	}
	t.Logf("pool: %d B after training, 0 after FinishRounds, %d B after an evaluation", trained, evalPool)
}
