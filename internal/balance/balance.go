// Package balance solves the paper's workload-balancing problem (§V-B/C):
// choose, for every edge, which incident device represents it in its tree,
// minimizing the maximum per-device workload subject to every edge being
// represented at least once (Eq. 10, proved NP-hard by reduction to min-max
// colored TSP). The approximation has two phases, exactly as in the paper:
//
//  1. Greedy initialization (Alg. 1): a device keeps a neighbor only if the
//     neighbor's rounded log-degree is at least its own; degree comparisons
//     run under the secure comparison protocol so degrees stay hidden.
//  2. MCMC iteration (Alg. 2): Metropolis-Hastings over assignment states —
//     find the max-workload device (Alg. 3, with secure workload
//     comparisons and server tie-breaking), move k ~ U[1, round(ln wl)]
//     branches off it, and accept with probability min(1, e^{f(X)−f(X')}).
//     Theorem 2 bounds the tail probability of a bad final state.
//
// Alg. 3's candidate filter is maintained incrementally: a device's
// candidacy can only change when its own or a neighbor's workload changes,
// and each MCMC transition touches at most 1+k devices, so re-running the
// full quadratic scan every iteration (as the paper's pseudo-code literally
// does) would repeat byte-identical comparisons. The incremental version
// produces the same candidate set with strictly fewer secure comparisons.
package balance

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/rng"
	"lumos/internal/smc"
)

// Config controls the balancing run.
type Config struct {
	// Iterations is the MCMC iteration count T (paper: 1000 for Facebook,
	// 300 for LastFM).
	Iterations int
	// Bits is the secure comparator operand width L (default 32). Balance
	// rejects a width below smc.FracBits + bits.Len(max degree), the
	// narrowest that holds a workload in the MH step's fixed point.
	Bits int
	// Secure selects the OT-based comparison protocol. When false,
	// comparisons are evaluated in plaintext — results are identical and
	// traffic is still charged, with the protocol's own formula, but no OT
	// work is done; intended for large-scale benchmarks.
	Secure bool
	// Seed drives proposal sampling and server tie-breaks.
	Seed int64
}

// Validate fills defaults.
func (c *Config) Validate() error {
	if c.Iterations < 0 {
		return fmt.Errorf("balance: negative iteration count %d", c.Iterations)
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.Bits < 8 || c.Bits > 64 {
		return fmt.Errorf("balance: comparator width %d outside [8,64]", c.Bits)
	}
	return nil
}

// Result is the balanced assignment.
type Result struct {
	// Retained[v] lists the neighbors device v keeps in its tree (N_v).
	Retained [][]int
	// Workloads[v] = len(Retained[v]).
	Workloads []int
	// MaxTrace records the maximum workload after every MCMC iteration
	// (index 0 = after greedy initialization).
	MaxTrace []int
	// Accepted counts accepted MH transitions.
	Accepted int
	// SMC is the secure-comparison traffic accumulated by the run.
	SMC smc.Stats
	// ControlMessages counts device↔server coordination messages.
	ControlMessages int
}

// MaxWorkload returns the final objective value f(X).
func (r *Result) MaxWorkload() int {
	mx := 0
	for _, w := range r.Workloads {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// comparer wraps the secure protocol so the plaintext fast path charges
// the same traffic (smc.Protocol.ChargeComparison) as the protocol itself.
type comparer struct {
	proto  *smc.Protocol
	secure bool
}

func (c *comparer) less(alice *smc.Party, a uint64, bob *smc.Party, b uint64) bool {
	if c.secure {
		return c.proto.Less(alice, a, bob, b)
	}
	c.proto.ChargeComparison()
	return a < b
}

func (c *comparer) lessOrEqual(alice *smc.Party, a uint64, bob *smc.Party, b uint64) bool {
	if c.secure {
		return c.proto.LessOrEqual(alice, a, bob, b)
	}
	c.proto.ChargeComparison()
	return a <= b
}

func (c *comparer) acceptMH(alice *smc.Party, fx float64, bob *smc.Party, fy float64, u float64) bool {
	if c.secure {
		return c.proto.AcceptMH(alice, fx, bob, fy, u)
	}
	c.proto.ChargeComparison()
	return math.Log(u) < fx-fy
}

// minBits is the narrowest comparator width that holds every operand of g's
// balancing run: workloads never exceed the maximum degree, and the MH accept
// step compares them in fixed point with smc.FracBits fractional bits. A
// narrower width saturates both MH operands, so every proposal is rejected.
func minBits(g *graph.Graph) int {
	return smc.FracBits + bits.Len(uint(g.MaxDegree()))
}

// GreedyInit runs Alg. 1: device u keeps neighbor v iff
// round(ln deg(v)) ≥ round(ln deg(u)), decided by secure comparison of the
// rounded log-degrees. Ties keep the edge on both sides, so the Eq. 10
// covering constraint always holds after initialization.
func GreedyInit(g *graph.Graph, devices []*fed.Device, cmp *comparer) [][]int {
	logDeg := make([]uint64, g.N)
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > 0 {
			logDeg[v] = uint64(math.Round(math.Log(float64(d))))
		}
	}
	retained := make([][]int, g.N)
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		// u keeps v iff logDeg[u] ≤ logDeg[v]; v keeps u symmetrically.
		if cmp.lessOrEqual(devices[u].Party, logDeg[u], devices[v].Party, logDeg[v]) {
			retained[u] = append(retained[u], v)
		}
		if cmp.lessOrEqual(devices[v].Party, logDeg[v], devices[u].Party, logDeg[u]) {
			retained[v] = append(retained[v], u)
		}
	}
	return retained
}

// WithoutTrimming returns the untrimmed assignment used by the
// "Lumos w.o. TT" ablation: every device keeps its full neighbor set, so
// workload equals degree.
func WithoutTrimming(g *graph.Graph) *Result {
	r := &Result{
		Retained:  make([][]int, g.N),
		Workloads: make([]int, g.N),
	}
	for v := 0; v < g.N; v++ {
		r.Retained[v] = append([]int(nil), g.Adj[v]...)
		r.Workloads[v] = len(g.Adj[v])
	}
	r.MaxTrace = []int{r.MaxWorkload()}
	return r
}

// Balance runs greedy initialization followed by cfg.Iterations MCMC steps.
// The server coordinates Alg. 3 but never learns a workload value — only
// candidate announcements and comparison outcomes.
func Balance(g *graph.Graph, devices []*fed.Device, server *fed.Server, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(devices) != g.N {
		return nil, fmt.Errorf("balance: %d devices for %d vertices", len(devices), g.N)
	}
	// Checked in both modes: the plaintext path promises the secure path's
	// results.
	if need := minBits(g); cfg.Bits < need {
		return nil, fmt.Errorf("balance: comparator width %d cannot hold max degree %d with %d fractional bits; need at least %d bits",
			cfg.Bits, g.MaxDegree(), smc.FracBits, need)
	}
	stats := &smc.Stats{}
	cmp := &comparer{proto: smc.NewProtocol(cfg.Bits, stats), secure: cfg.Secure}
	rng := rng.New(cfg.Seed ^ 0x42616c616e636572)

	st := newState(g, GreedyInit(g, devices, cmp))
	res := &Result{MaxTrace: []int{st.maxWorkload()}}

	for t := 0; t < cfg.Iterations; t++ {
		u := st.findMaxDevice(devices, server, cmp, res)
		if u < 0 || st.wl[u] == 0 {
			res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
			continue
		}
		fx := float64(st.wl[u]) // f(X_t): the current maximum workload
		// Device u samples the step size k ∈ [1, round(ln wl(u))] (Alg. 2
		// line 3) and k distinct members of N_u (line 4).
		kMax := int(math.Round(math.Log(float64(st.wl[u]))))
		if kMax < 1 {
			kMax = 1
		}
		k := 1 + devices[u].Rng.Intn(kMax)
		if k > st.wl[u] {
			k = st.wl[u]
		}
		moved := st.sampleNeighbors(u, k, devices[u].Rng)
		tr := st.apply(u, moved)
		res.ControlMessages += len(moved) // u notifies each moved device

		uPrime := st.findMaxDevice(devices, server, cmp, res)
		fy := float64(st.wl[uPrime]) // f(X'_t)
		if cmp.acceptMH(devices[u].Party, fx, devices[uPrime].Party, fy, 1-rng.Float64()) {
			res.Accepted++
		} else {
			st.revert(tr)
			res.ControlMessages += len(moved) // rollback notifications
		}
		res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
	}

	res.Retained = st.retainedSlices()
	res.Workloads = append([]int(nil), st.wl...)
	res.SMC = *stats
	return res, nil
}

// state maintains the assignment, workloads, and the incrementally
// maintained candidate structure for Alg. 3.
type state struct {
	g        *graph.Graph
	retained []map[int]bool
	wl       []int
	// isCand caches each device's Alg. 3 candidacy (local workload
	// maximum); dirty marks devices whose cache must be refreshed.
	isCand []bool
	dirty  map[int]bool
}

func newState(g *graph.Graph, retained [][]int) *state {
	st := &state{
		g:        g,
		retained: make([]map[int]bool, g.N),
		wl:       make([]int, g.N),
		isCand:   make([]bool, g.N),
		dirty:    make(map[int]bool, g.N),
	}
	for v := 0; v < g.N; v++ {
		st.retained[v] = make(map[int]bool, len(retained[v]))
		for _, u := range retained[v] {
			st.retained[v][u] = true
		}
		st.wl[v] = len(st.retained[v])
		st.dirty[v] = true
	}
	return st
}

func (st *state) maxWorkload() int {
	mx := 0
	for _, w := range st.wl {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// markChanged flags v and its graph neighbors for candidacy recheck.
func (st *state) markChanged(v int) {
	st.dirty[v] = true
	for _, n := range st.g.Adj[v] {
		st.dirty[n] = true
	}
}

// findMaxDevice runs Alg. 3: refresh candidacy of dirty devices via secure
// comparisons with their neighbors, then run a secure tournament among
// candidates with server-side random tie-breaking. Returns -1 only for an
// edgeless graph.
func (st *state) findMaxDevice(devices []*fed.Device, server *fed.Server, cmp *comparer, res *Result) int {
	for v := range st.dirty {
		cand := true
		for _, n := range st.g.Adj[v] {
			// Every neighbor's workload must satisfy wl_n ≤ wl_v.
			if !cmp.lessOrEqual(devices[n].Party, uint64(st.wl[n]), devices[v].Party, uint64(st.wl[v])) {
				cand = false
				break
			}
		}
		st.isCand[v] = cand
	}
	clear(st.dirty)

	var cvs []int
	for v, ok := range st.isCand {
		if ok {
			cvs = append(cvs, v)
		}
	}
	if len(cvs) == 0 {
		return -1
	}
	res.ControlMessages += len(cvs) // candidate announcements
	best := []int{cvs[0]}
	for _, c := range cvs[1:] {
		b := best[0]
		if cmp.less(devices[c].Party, uint64(st.wl[c]), devices[b].Party, uint64(st.wl[b])) {
			continue // c strictly smaller
		}
		if cmp.less(devices[b].Party, uint64(st.wl[b]), devices[c].Party, uint64(st.wl[c])) {
			best = []int{c} // c strictly larger
		} else {
			best = append(best, c) // tie
		}
	}
	res.ControlMessages += len(cvs) // server responses
	return best[server.Rng.Intn(len(best))]
}

// sampleNeighbors draws k distinct members of N_u using device u's private
// randomness, with a deterministic base order for reproducibility.
func (st *state) sampleNeighbors(u, k int, rng *rand.Rand) []int {
	members := make([]int, 0, st.wl[u])
	for v := range st.retained[u] {
		members = append(members, v)
	}
	sort.Ints(members)
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return members[:k]
}

// transition records what apply changed so revert can restore it exactly.
type transition struct {
	u     int
	moved []int // removed from N_u (all were present)
	added []int // subset of moved where u was newly added to N_v
}

// apply performs the Eq. 17 transition: remove each v from N_u and add u to
// N_v (set semantics — when v already retained u only the removal changes
// workloads, strictly improving the objective contribution).
func (st *state) apply(u int, moved []int) transition {
	tr := transition{u: u, moved: moved}
	for _, v := range moved {
		delete(st.retained[u], v)
		if !st.retained[v][u] {
			st.retained[v][u] = true
			tr.added = append(tr.added, v)
		}
		st.wl[v] = len(st.retained[v])
		st.markChanged(v)
	}
	st.wl[u] = len(st.retained[u])
	st.markChanged(u)
	return tr
}

// revert undoes a rejected transition.
func (st *state) revert(tr transition) {
	for _, v := range tr.moved {
		st.retained[tr.u][v] = true
	}
	for _, v := range tr.added {
		delete(st.retained[v], tr.u)
	}
	for _, v := range tr.moved {
		st.wl[v] = len(st.retained[v])
		st.markChanged(v)
	}
	st.wl[tr.u] = len(st.retained[tr.u])
	st.markChanged(tr.u)
}

func (st *state) retainedSlices() [][]int {
	out := make([][]int, st.g.N)
	for v := range st.retained {
		for u := range st.retained[v] {
			out[v] = append(out[v], u)
		}
		sort.Ints(out[v])
	}
	return out
}

// VerifyCover checks the Eq. 10 covering constraint: every edge of g is
// retained by at least one endpoint. Used by tests and as a postcondition.
func VerifyCover(g *graph.Graph, retained [][]int) error {
	sets := make([]map[int]bool, g.N)
	for v := range retained {
		sets[v] = make(map[int]bool, len(retained[v]))
		for _, u := range retained[v] {
			sets[v][u] = true
		}
	}
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		if !sets[u][v] && !sets[v][u] {
			return fmt.Errorf("balance: edge (%d,%d) uncovered", u, v)
		}
	}
	return nil
}
