package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"lumos/internal/autodiff"
	"lumos/internal/nn"
	"lumos/internal/rng"
	"lumos/internal/tensor"
	"lumos/internal/tree"
)

// This file implements the device-parallel training engine. The forest is
// block-diagonal — every device tree is its own connected component — so an
// epoch decomposes into independent per-shard local passes plus a small
// serial combine:
//
//  1. parallel: each shard (a contiguous run of device trees) runs the
//     shared encoder over its sub-forest and pools its leaves into a partial
//     embedding P_s (paper Eq. 31 restricted to the shard's leaves) with one
//     row per distinct vertex those leaves stand for — K_s×OutDim, what the
//     shard's devices actually push, never N×OutDim;
//  2. serial: the pooled rows the loss reads (Objective.lossRows — all N
//     for link prediction, the present training vertices for node
//     classification, one row for a gossip device's local step) = the P_s
//     rows holding those vertices, scatter-added in shard order
//     (autodiff.ScatterAddN), then the task loss over just those rows;
//  3. parallel: each shard replays the loss gradient of its partial through
//     its own subgraph, accumulating into shard-private views of the shared
//     weights (nn.CloneShared); as each shard's backward ends, its view
//     gradients are reduced into the real parameters, strictly in shard
//     order (an ordered cursor under a mutex: a shard that finishes early
//     waits for the ones before it);
//  4. serial: the optimizer steps.
//
// Determinism: the shard partition depends only on Config.Shards (never on
// Workers or the machine), every shard owns a private RNG stream split from
// the root seed, all cross-shard reductions (steps 2 and 3's) run in fixed
// shard order, and parallel phases otherwise write only shard-local state.
// So Workers=1 and Workers=N produce bit-identical losses and weights.
//
// Under Config.Sched == SchedAsync, step 3's reduction additionally delays
// the gradient contribution of straggler shards (the heaviest trees) by up
// to Config.Staleness epochs, simulating staleness-bounded asynchronous
// aggregation: the reduction queues their gradients instead, and queued
// gradients that come due fold in before any fresh one. The delay schedule
// derives from the shard workload ranking, so async runs are exactly as
// reproducible as sync ones.
//
// Memory: a round holds only what its backward will read. Every tape the
// engine records on — the shard tapes and the serial tape — draws from one
// engine-wide autodiff.Pool, whose buffers are size-classed so that shards
// over trees of different sizes reuse each other's. A training forward ends
// with Tape.Release, which hands the pool every activation no backward
// reads (on a GCN shard, 5 of its 7 rows×16 activations), so from phase 1
// to phase 3 each fresh shard keeps only its saved-for-backward buffers and
// its partial. Where a backward needs only a few values per entry, the op
// keeps a byte per entry: a dropout mask is one byte per hidden entry, a
// GAT layer keeps α and a LeakyReLU branch byte per edge and head. A
// shard's tape hands back the rest right after its phase-3 backward, and
// its view gradients — taken from the pool as that backward starts — go
// back as soon as the ordered reduction has folded them (or, when delayed,
// once applied). So the pool peaks at the fresh shards' saved buffers plus
// about one shard's working set and view gradients per worker, plus the
// queued delayed gradients. An evaluation forward copies each shard's
// partial into an engine-owned matrix and resets the tape at once, so it
// holds one shard's activations per worker; a round or an evaluation in
// which few shards compute leaves the rest holding nothing. When training
// ends (Session.FinishRounds) the engine trims the pool: every free buffer
// goes to the garbage collector, so an evaluation afterwards regrows only
// its own working set (one shard's buffers per size class), not a round's.

// shard is a contiguous run of device trees [lo, hi), flattened into its own
// message-passing graph with shard-local row indices.
type shard struct {
	lo, hi int
	conv   *nn.ConvGraph
	x      *tensor.Matrix
	// view is x's rows of Forest.XView: what the first layer multiplies.
	view *tensor.ConstSparse
	// leafLocal[i] is the shard-local row of the shard's i-th leaf,
	// leafVertex[i] its global vertex, poolCoef[i] the Eq. 31 averaging
	// coefficient (identical to the corresponding Forest.PoolCoef entry).
	leafLocal  []int
	leafVertex []int
	poolCoef   []float64
	// verts lists the distinct vertices the shard's leaves stand for,
	// ascending: row k of the shard's pooled partial belongs to vertex
	// verts[k].
	verts []int
	// pool groups the leaf→partial-row pooling edges by row (stable leaf
	// order), so Eq. 31's gather-scale-sum runs as one CSR aggregation over
	// len(verts) segments.
	pool *tensor.CSR
	// work is the shard's node count — its compute weight, used both to
	// balance the partition and to rank stragglers for async scheduling.
	work int
}

// delayedGrads is one shard's encoder gradient, queued for application at
// (or after) the release epoch.
type delayedGrads struct {
	computed int // epoch the gradient was computed in
	release  int
	shard    int
	grads    []*tensor.Matrix // aligned with Encoder.Params()
}

// engine executes training epochs over the sharded forest.
type engine struct {
	sys    *System
	shards []*shard
	encs   []*nn.GNN        // per-shard shared-weight views of sys.Encoder
	rngs   []*rand.Rand     // per-shard dropout streams split from the root seed
	tapes  []*autodiff.Tape // per-shard autodiff tapes on pool, reset once the shard is done
	// pool is the engine-wide buffer pool: every shard tape's buffers and
	// the shard views' gradients come from it and go back to it.
	pool    *autodiff.Pool
	serial  *autodiff.Tape // tape of the serial combine-and-loss phase
	workers int
	delays  []int // per-shard staleness delay in epochs (all zero when sync)
	queue   []delayedGrads
	epoch   int
	// Parameter lists are cached once: Params() allocates, and the epoch
	// loop needs them every round.
	viewParams [][]*nn.Param // per-shard view parameters, aligned with encParams
	encParams  []*nn.Param   // the real encoder parameters
	allParams  []*nn.Param   // encoder + head, the optimizer's param set
	// lastParts/partAge cache each shard's most recent pooled partial
	// (len(verts) rows, like the partial itself) for partial-participation
	// rounds: an absent shard's vertices keep serving the embeddings its
	// leaves last pushed, until the cache ages out. The cache owns its
	// matrices (copied out of the shard tapes, which recycle theirs every
	// epoch) and keeps them for the shard's next copy when they expire:
	// partAge[i] < 0 marks shard i as having no live cache (never computed,
	// or expired).
	lastParts []*tensor.Matrix
	partAge   []int
	// allVerts[i] is shards[i].verts — the row lists of a full combine.
	allVerts [][]int
	// holders[v] lists every (shard, partial row) pair holding vertex v —
	// one per shard with a leaf standing for v — in shard order: the terms
	// of v's pooled row, in the order ScatterAddN sums them. A round that
	// reads v combines only the holders whose shard computed fresh or still
	// serves a live cache. For a gossip device's one-device step that is its
	// own fresh partial plus the cached partials of the graph neighbours that
	// retained it — the embeddings they last pushed, made under their own
	// replicas.
	holders [][]holder
	// freeSets holds emptied delayedGrads.grads slices (their buffers went
	// back to the pool when applied) for the next delayed shard to fill.
	freeSets [][]*tensor.Matrix
	// Phase 3's ordered reduction: backDone[i] marks fresh shard i's
	// backward as ended this round, and foldNext indexes the next shard of
	// work to fold. viewSets counts the shards whose view gradients are
	// checked out of the pool and not yet folded, and viewSetsPeak the most
	// at once this round. foldMu guards them, the real encoder gradients,
	// the queue and freeSets while phase 3 runs.
	foldMu       sync.Mutex
	backDone     []bool
	foldNext     int
	viewSets     int
	viewSetsPeak int
	// evalParts[i] is the engine's copy of shard i's last evaluation-mode
	// partial, taken so the shard's tape can be reset at once.
	evalParts []*tensor.Matrix
	// Per-round scratch, one entry per shard (terms, termSrc and termDst:
	// capacity for one), so rounds do not allocate it; each round (or eval
	// forward) overwrites what the last one left. serving marks the shards
	// whose partial the round's combine may read (fresh, or a live cache);
	// srcRows[i] and dstSlots[i] are shard i's (partial row, pooled slot)
	// pairs in a row-restricted combine, with room for all of its vertices.
	parts, cuts, terms []*autodiff.Value
	termSrc, termDst   [][]int
	srcRows, dstSlots  [][]int
	serving            []bool
	shardActive        []bool
	shardDelay         []int
	// work lists the shards a parallel phase runs (see parallel); all lists
	// every shard.
	work, all []int
	// denseInput makes every shard forward read its dense rows of
	// Forest.X instead of the XView: the oracle the first-layer view is
	// tested against. Only tests set it.
	denseInput bool
}

// holder is one shard's partial row standing for a vertex.
type holder struct{ shard, row int }

// newEngine shards the system's forest and prepares per-shard model views.
func newEngine(s *System) *engine {
	target := s.Cfg.Shards
	if target == 0 {
		target = DefaultShards
	}
	if target > s.G.N {
		target = s.G.N
	}
	e := &engine{sys: s, workers: s.Cfg.Workers}
	e.shards = buildShards(s.Forest, s.Trees, target)
	for i, sh := range e.shards {
		e.allVerts = append(e.allVerts, sh.verts)
		e.encs = append(e.encs, s.Encoder.CloneShared())
		e.rngs = append(e.rngs, rng.Stream(s.Cfg.Seed, rng.Dropout, i))
		e.viewParams = append(e.viewParams, e.encs[i].Params())
	}
	e.tapes = make([]*autodiff.Tape, len(e.shards))
	e.pool = autodiff.NewPool()
	n := len(e.shards)
	e.work, e.all = make([]int, 0, n), make([]int, n)
	for i := range e.all {
		e.all[i] = i
	}
	e.parts, e.cuts = make([]*autodiff.Value, n), make([]*autodiff.Value, n)
	e.evalParts = make([]*tensor.Matrix, n)
	e.terms = make([]*autodiff.Value, 0, n)
	e.termSrc, e.termDst = make([][]int, 0, n), make([][]int, 0, n)
	e.serving, e.shardActive, e.shardDelay = make([]bool, n), make([]bool, n), make([]int, n)
	e.backDone = make([]bool, n)
	e.buildHolders()
	e.encParams = s.Encoder.Params()
	e.allParams = s.Params()
	staleness := 0
	if s.Cfg.Sched == SchedAsync {
		staleness = s.Cfg.Staleness
	}
	e.delays = shardDelays(e.shards, staleness)
	return e
}

// buildHolders builds the vertex → (shard, partial row) index and the
// per-shard pair lists of a row-restricted combine, each carved out of one
// backing array.
func (e *engine) buildHolders() {
	count := make([]int, e.sys.G.N)
	total := 0
	for _, sh := range e.shards {
		for _, v := range sh.verts {
			count[v]++
		}
		total += len(sh.verts)
	}
	flat := make([]holder, total)
	e.holders = make([][]holder, len(count))
	off := 0
	for v, c := range count {
		e.holders[v] = flat[off : off : off+c]
		off += c
	}
	for i, sh := range e.shards {
		for k, v := range sh.verts {
			e.holders[v] = append(e.holders[v], holder{shard: i, row: k})
		}
	}
	src, dst := make([]int, total), make([]int, total)
	e.srcRows, e.dstSlots = make([][]int, len(e.shards)), make([][]int, len(e.shards))
	off = 0
	for i, sh := range e.shards {
		k := len(sh.verts)
		e.srcRows[i], e.dstSlots[i] = src[off:off:off+k], dst[off:off:off+k]
		off += k
	}
}

// shardTape returns shard i's tape ready for a fresh recording: reset for
// reuse in the steady state, brand new (on the engine's pool) on first use.
// Only shard i's worker may call this for i.
func (e *engine) shardTape(i int) *autodiff.Tape {
	if e.tapes[i] == nil {
		e.tapes[i] = e.pool.NewTape()
	} else {
		e.tapes[i].Reset()
	}
	return e.tapes[i]
}

// serialTape returns the combine-phase tape ready for a fresh recording:
// reset for reuse, or brand new (on the engine's pool) on first use.
func (e *engine) serialTape() *autodiff.Tape {
	if e.serial == nil {
		e.serial = e.pool.NewTape()
	} else {
		e.serial.Reset()
	}
	return e.serial
}

// zeroGrads clears the gradients of the real model parameters (buffers are
// recycled in place by the next accumulation).
func (e *engine) zeroGrads() {
	for _, p := range e.allParams {
		p.V.ZeroGrad()
	}
}

// buildShards partitions the trees into at most target contiguous shards,
// balanced by node count, and flattens each into a shard-local graph plus
// the pooling of its leaves into its partial's rows. The partition is a pure
// function of the forest shape — never of Workers.
func buildShards(f *Forest, trees []*tree.Tree, target int) []*shard {
	n := len(trees)
	if target > n {
		target = n
	}
	if target < 1 {
		target = 1
	}
	shards := make([]*shard, 0, target)
	leafIdx := 0
	lo, nodesUsed := 0, 0
	for si := 0; si < target; si++ {
		remaining := target - si
		hi := lo + 1
		work := trees[lo].NumNodes
		if si == target-1 {
			hi = n
			work = f.NumNodes - nodesUsed
		} else {
			budget := (f.NumNodes - nodesUsed) / remaining
			for hi < n && n-hi > remaining-1 && work+trees[hi].NumNodes <= budget {
				work += trees[hi].NumNodes
				hi++
			}
		}
		base := f.Offsets[lo]
		end := f.NumNodes
		if hi < n {
			end = f.Offsets[hi]
		}
		rows := end - base
		sh := &shard{lo: lo, hi: hi, work: work}
		// A view, not a copy: shard rows are contiguous in the forest, and
		// the forward pass only reads X, so all shards alias f.X safely.
		sh.x = f.X.SliceRows(base, end)
		sh.view = f.XView.SliceRows(base, end)
		var edges [][2]int
		for v := lo; v < hi; v++ {
			off := f.Offsets[v] - base
			for _, e := range trees[v].Edges {
				edges = append(edges, [2]int{off + e[0], off + e[1]})
			}
		}
		sh.conv = nn.NewConvGraph(rows, edges)
		// Forest leaf arrays ascend in row order, so each shard owns a
		// contiguous slice of them.
		for leafIdx < len(f.LeafRows) && f.LeafRows[leafIdx] < end {
			sh.leafLocal = append(sh.leafLocal, f.LeafRows[leafIdx]-base)
			sh.leafVertex = append(sh.leafVertex, f.LeafVertex[leafIdx])
			sh.poolCoef = append(sh.poolCoef, f.PoolCoef[leafIdx])
			leafIdx++
		}
		// Each leaf pools into the partial row of its vertex: its vertex's
		// rank among the shard's distinct leaf vertices.
		sh.verts = slices.Clone(sh.leafVertex)
		slices.Sort(sh.verts)
		sh.verts = slices.Compact(sh.verts)
		leafRow := make([]int, len(sh.leafVertex))
		for i, v := range sh.leafVertex {
			leafRow[i], _ = slices.BinarySearch(sh.verts, v)
		}
		sh.pool = tensor.NewCSR(len(sh.verts), sh.leafLocal, leafRow)
		shards = append(shards, sh)
		nodesUsed += work
		lo = hi
	}
	return shards
}

// shardDelays assigns each shard its gradient-application delay: the
// heaviest shard lags the full staleness bound, the next heaviest one epoch
// less, and so on down to zero. Ties break by shard index, keeping the
// schedule deterministic.
func shardDelays(shards []*shard, staleness int) []int {
	delays := make([]int, len(shards))
	if staleness <= 0 {
		return delays
	}
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by descending work, ascending index — shard counts are
	// small (≤ DefaultShards) and this avoids pulling in sort for one call.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if shards[a].work > shards[b].work || (shards[a].work == shards[b].work && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	for rank, s := range order {
		if d := staleness - rank; d > 0 {
			delays[s] = d
		}
	}
	return delays
}

// parallel runs fn(i) for every shard index in shards on the engine's
// worker pool, with no more workers than shards: a phase with one shard to
// run (a gossip device's step) runs on the caller. Shard order of side
// effects is unconstrained; callers must only write shard-local state.
func (e *engine) parallel(shards []int, fn func(i int)) {
	w := min(e.workers, len(shards))
	if w <= 1 {
		for _, i := range shards {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shards) {
					return
				}
				fn(shards[k])
			}
		}()
	}
	wg.Wait()
}

// shardForward runs the shared encoder over shard i — its first layer
// multiplying through the shard's rows of Forest.XView — and pools the
// shard's leaves into its partial embedding P_s (len(verts)×OutDim, row k
// for vertex verts[k]). It records onto shard i's tape, taken fresh, so the
// partial's graph is tape-backed and rooted in the shard's weight views:
// Backward on it is a linear sweep. A training forward releases every
// activation its backward will not read (Tape.Release); the rest, and the
// partial, stay checked out of the pool until the tape's next Reset. Only
// shard i's worker may call it for i.
func (e *engine) shardForward(i int, training bool) *autodiff.Value {
	sh := e.shards[i]
	tp := e.shardTape(i)
	var x *autodiff.Value
	if e.denseInput {
		x = tp.Const(sh.x)
	} else {
		x = tp.ConstSparse(sh.x, sh.view)
	}
	h := e.encs[i].Forward(sh.conv, x, training, e.rngs[i])
	p := autodiff.CSRAggregate(h, sh.pool, sh.poolCoef)
	if training {
		tp.Release(p)
	}
	return p
}

// forwardActive runs shardForward over the active shards (nil means all);
// inactive shards get a nil partial. Every active shard's tape keeps its
// buffers until the caller resets it. The returned slice is the engine's
// scratch, good until the next call.
func (e *engine) forwardActive(training bool, active []bool) []*autodiff.Value {
	parts := e.parts
	e.work = e.work[:0]
	for i := range parts {
		parts[i] = nil
		if active == nil || active[i] {
			e.work = append(e.work, i)
		}
	}
	e.parallel(e.work, func(i int) {
		parts[i] = e.shardForward(i, training)
	})
	return parts
}

// forward runs the shared encoder over every shard in evaluation mode and
// pools leaf embeddings into per-vertex embeddings (N×OutDim; paper Eq. 31,
// average pooling). Each shard's partial is copied into evalParts and its
// tape reset at once, so an evaluation holds one shard's activations per
// worker; the copies are then cut onto the serial tape and combined there
// in fixed shard order, so the result does not depend on Workers. It lives
// in the serial tape's buffers: good until the next round or forward.
func (e *engine) forward() *autodiff.Value {
	e.parallel(e.all, func(i int) {
		p := e.shardForward(i, false).Data
		if e.evalParts[i] == nil {
			e.evalParts[i] = p.Clone()
		} else {
			e.evalParts[i].CopyFrom(p)
		}
		e.tapes[i].Reset()
	})
	st := e.serialTape()
	for i, p := range e.evalParts {
		e.cuts[i] = st.Const(p)
	}
	return autodiff.ScatterAddN(e.sys.G.N, e.cuts, nil, e.allVerts)
}

// step runs one full-participation training epoch under the engine's
// built-in (workload-ranked) staleness schedule, combining the pooled rows
// of the vertices in rows (nil = all N; see stepRound). Returns the epoch
// loss.
func (e *engine) step(rows []int, lossFn func(pooled *autodiff.Value) *autodiff.Value) float64 {
	loss, _ := e.stepRound(nil, nil, 0, rows, lossFn)
	return loss
}

// roundReport carries the partial-participation bookkeeping of one round.
type roundReport struct {
	activeShards int // shards that computed a fresh update
	staleApplied int // queued gradients from earlier rounds applied this round
	// expiredParts counts absent shards whose contribution this round's
	// forward pass actually lost to an aged-out cache (a cache that ages out
	// during rounds with no forward pass, or is refreshed by fresh compute,
	// drops nothing and is not counted).
	expiredParts int
}

// stepRound runs one training round: parallel shard forward over the active
// shards (nil = all), serial loss over the combined pooling, parallel shard
// backward, deterministic tree-ordered gradient reduction, optimizer step.
// lossFn builds the scalar task loss from the pooled embeddings of the
// vertices in rows (ascending; row j of pooled is vertex rows[j]), or of all
// N vertices when rows is nil; any real parameters it touches directly (e.g.
// the supervised head) get fresh gradients via the serial phase. Restricting
// the combine to rows is exact: per vertex the same terms are summed in the
// same shard order, and a row the loss never reads only ever received, and
// sent back, a +0 gradient.
//
// delays, when non-nil, gives each shard's gradient-application delay in
// rounds (e.g. derived from simulated message arrivals); nil selects the
// engine's own workload-ranked schedule. An inactive shard contributes the
// pooled partial cached from its last active round — the embeddings its
// leaves pushed before the devices went offline — until the cache is more
// than partTTL rounds old, after which the contribution is dropped.
func (e *engine) stepRound(active []bool, delays []int, partTTL int, rows []int, lossFn func(pooled *autodiff.Value) *autodiff.Value) (float64, roundReport) {
	s := e.sys
	e.zeroGrads()
	// The stale-partial cache only serves partial-participation rounds, so
	// it is allocated lazily on first partial use — pure full-participation
	// runs never pay the retention. Once allocated, every round (including
	// full-participation epochs on the same system) refreshes it, so the
	// TTL always counts real rounds since a shard's last computation.
	if active != nil && e.lastParts == nil {
		e.lastParts = make([]*tensor.Matrix, len(e.shards))
		e.partAge = make([]int, len(e.shards))
		for i := range e.partAge {
			e.partAge[i] = -1
		}
	}
	var rep roundReport

	// Phase 1: parallel local forward + pool over the active shards.
	parts := e.forwardActive(true, active)

	// Phase 2: serial combine and loss, recorded on the combine tape.
	// Cutting the graph at each fresh partial (a new leaf sharing the
	// partial's data) keeps the expensive shard subgraphs out of this
	// Backward; it stops at the cut leaves. Absent shards serve their cached
	// partial as a constant.
	st := e.serialTape()
	cuts, serving := e.cuts, e.serving
	for i, p := range parts {
		cuts[i], serving[i] = nil, false
		switch {
		case p != nil:
			rep.activeShards++
			cuts[i], serving[i] = st.Var(p.Data), true
			if e.lastParts != nil {
				// Copy the partial out of the shard tape: the cache must
				// outlive the tape's next Reset.
				if e.lastParts[i] == nil {
					e.lastParts[i] = p.Data.Clone()
				} else {
					e.lastParts[i].CopyFrom(p.Data)
				}
				e.partAge[i] = 0
			}
		case e.partAge[i] < 0:
			// No live cache: the shard contributes nothing until it
			// computes again.
		case e.partAge[i] < partTTL:
			e.partAge[i]++
			serving[i] = true
		default:
			// Expired: count the dropped contribution once. The matrix stays
			// for the shard's next copy.
			e.partAge[i] = -1
			rep.expiredParts++
		}
	}
	// Every term lands on the pooled rows of its shard's vertices — all of
	// them, or only the pairs restrictTo found for the loss rows.
	n := s.G.N
	e.terms, e.termSrc, e.termDst = e.terms[:0], e.termSrc[:0], e.termDst[:0]
	if rows != nil {
		n = len(rows)
		e.restrictTo(rows)
	}
	for i := range parts {
		switch {
		case cuts[i] != nil:
			// A fresh shard stays a term even when the loss reads none of
			// its rows: its cut then receives an all-zero gradient, so the
			// encoder still gets one and the optimizer still steps it.
			e.terms = append(e.terms, cuts[i])
		case serving[i] && (rows == nil || len(e.dstSlots[i]) > 0):
			e.terms = append(e.terms, st.Const(e.lastParts[i]))
		default:
			continue
		}
		if rows == nil {
			e.termDst = append(e.termDst, e.shards[i].verts)
		} else {
			e.termSrc = append(e.termSrc, e.srcRows[i])
			e.termDst = append(e.termDst, e.dstSlots[i])
		}
	}
	var pooled *autodiff.Value
	if len(e.terms) > 0 {
		var src [][]int // nil: every partial row
		if rows != nil {
			src = e.termSrc
		}
		pooled = autodiff.ScatterAddN(n, e.terms, src, e.termDst)
	} else {
		pooled = st.Const(st.Matrix(n, s.Encoder.EmbeddingDim()))
	}
	loss := lossFn(pooled)
	loss.Backward()
	// Gradients queued in earlier rounds that come due now fold first, in
	// queue order, before any this round computes.
	rep.staleApplied = e.applyDue(e.epoch)

	// Phase 3: parallel shard backward over the fresh shards, replaying each
	// cut's gradient through the shard subgraph into the shard's private
	// weight views, whose gradient buffers come from the pool, then
	// resetting the shard's tape: its buffers go back to the pool for the
	// shards still running. A fresh cut leaf's Data is its partial's buffer,
	// released here: nothing reads the cuts after this phase. Each shard's
	// view gradients then fold in shard order (foldInOrder).
	e.work = e.work[:0]
	for i, c := range cuts {
		if c != nil {
			e.work = append(e.work, i)
			e.backDone[i] = false
		}
	}
	e.foldNext, e.viewSetsPeak = 0, 0
	e.parallel(e.work, func(i int) {
		if g := cuts[i].Grad; g != nil {
			e.foldMu.Lock()
			e.viewSets++
			e.viewSetsPeak = max(e.viewSetsPeak, e.viewSets)
			e.foldMu.Unlock()
			for _, vp := range e.viewParams[i] {
				vp.V.RecycleGrad(e.pool.Get(vp.V.Data.Dims()))
			}
			parts[i].BackwardWithGradient(g)
		}
		e.tapes[i].Reset()
		e.foldInOrder(i, delays)
	})
	s.opt.Step(e.allParams)
	e.epoch++
	return loss.Scalar(), rep
}

// foldInOrder marks fresh shard i's backward as ended and folds every
// fresh shard whose turn has come: the cursor walks e.work in shard order
// and stops at the first shard still computing, whose own call folds it and
// whatever finished behind it. So view gradients reduce in shard order
// whatever the worker interleaving, and a shard's sit in flight only while
// an earlier shard is still running.
func (e *engine) foldInOrder(i int, delays []int) {
	e.foldMu.Lock()
	defer e.foldMu.Unlock()
	e.backDone[i] = true
	for ; e.foldNext < len(e.work) && e.backDone[e.work[e.foldNext]]; e.foldNext++ {
		k := e.work[e.foldNext]
		if e.cuts[k].Grad != nil {
			e.viewSets--
		}
		e.fold(k, delays)
	}
}

// fold detaches fresh shard i's view gradients: an immediate (delay-0) one
// folds straight into the real parameters and its buffer goes back to the
// pool, a delayed one goes into the queue until applyDue applies it and
// pools it. delays is stepRound's (nil: the engine's own schedule).
func (e *engine) fold(i int, delays []int) {
	d := e.delays[i]
	if delays != nil {
		d = delays[i]
	}
	views := e.viewParams[i]
	if d == 0 {
		for j, vp := range views {
			if g := vp.V.DetachGrad(); g != nil {
				tensor.AddInPlace(e.encParams[j].V.EnsureGrad(), g)
				e.pool.Put(g)
			}
		}
		return
	}
	var grads []*tensor.Matrix
	if k := len(e.freeSets) - 1; k >= 0 {
		grads, e.freeSets = e.freeSets[k], e.freeSets[:k]
	} else {
		grads = make([]*tensor.Matrix, len(views))
	}
	for j, vp := range views {
		grads[j] = vp.V.DetachGrad()
	}
	e.queue = append(e.queue, delayedGrads{computed: e.epoch, release: e.epoch + d, shard: i, grads: grads})
}

// restrictTo fills srcRows/dstSlots with each serving shard's (partial row,
// pooled slot) pairs for the vertices in rows: slot j is vertex rows[j], and
// its holders contribute when their shard computed fresh or serves a live
// cache this round. Slots ascend within every shard, and so do partial rows.
func (e *engine) restrictTo(rows []int) {
	for i := range e.srcRows {
		e.srcRows[i], e.dstSlots[i] = e.srcRows[i][:0], e.dstSlots[i][:0]
	}
	for j, v := range rows {
		for _, h := range e.holders[v] {
			if e.serving[h.shard] {
				e.srcRows[h.shard] = append(e.srcRows[h.shard], h.row)
				e.dstSlots[h.shard] = append(e.dstSlots[h.shard], j)
			}
		}
	}
}

// skipRound advances the round clock without fresh computation — used when a
// partial-participation round has nothing to contribute (no participant
// holds a training vertex, or nobody is online) — still applying any queued
// gradients that come due, stepping the optimizer as the aggregator would,
// and aging the stale-partial caches so their TTL counts real rounds.
func (e *engine) skipRound() int {
	e.zeroGrads()
	for i, age := range e.partAge {
		if age >= 0 {
			e.partAge[i]++
		}
	}
	stale := e.applyDue(e.epoch)
	e.sys.opt.Step(e.allParams)
	e.epoch++
	return stale
}

// applyDue folds every queued gradient whose release epoch has arrived into
// the real encoder parameters, in queue order (compute epoch, then shard) —
// a fixed order, so reduction stays bit-deterministic — and returns the
// applied buffers to the pool. Returns how many of the applied gradients
// were computed in an earlier epoch (stale applies).
func (e *engine) applyDue(epoch int) (stale int) {
	kept := e.queue[:0]
	for _, dg := range e.queue {
		if dg.release > epoch {
			kept = append(kept, dg)
			continue
		}
		if dg.computed < epoch {
			stale++
		}
		for j, g := range dg.grads {
			if g == nil {
				continue
			}
			tensor.AddInPlace(e.encParams[j].V.EnsureGrad(), g)
			e.pool.Put(g)
		}
		clear(dg.grads)
		e.freeSets = append(e.freeSets, dg.grads)
	}
	e.queue = kept
	return stale
}

// trim ends training's hold on memory: the serial tape hands back its last
// recording, and the pool hands every free buffer to the garbage collector
// (Pool.Trim). Shard tapes hold nothing between rounds, so afterwards the
// engine keeps no tape buffer at all; the next forward regrows what it
// needs.
func (e *engine) trim() {
	if e.serial != nil {
		e.serial.Reset()
	}
	e.pool.Trim()
}

// queueDepth reports how many shard gradients sit in the staleness queue
// awaiting application (always 0 under sync scheduling).
func (e *engine) queueDepth() int { return len(e.queue) }

// drain applies all still-pending stale gradients in one final synchronous
// step, mirroring the terminal barrier of a real bounded-staleness
// deployment. No-op under sync scheduling (the queue is always empty).
func (e *engine) drain() {
	if len(e.queue) == 0 {
		return
	}
	e.zeroGrads()
	e.applyDue(math.MaxInt)
	e.sys.opt.Step(e.allParams)
}
