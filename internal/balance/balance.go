// Package balance solves the paper's workload-balancing problem (§V-B/C):
// choose, for every edge, which incident device represents it in its tree,
// minimizing the maximum per-device workload subject to every edge being
// represented at least once (Eq. 10). The approximation has two phases,
// exactly as in the paper:
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
// The paper proves its problem NP-hard by reduction to min-max colored TSP.
// As this package states the problem — workload = len(Retained[v]), and
// VerifyCover the only constraint — keeping an edge on both sides never
// lowers the maximum, so the optimum is a minimum max-in-degree orientation
// of the graph, which is polynomial (binary search on the bound with a
// max-flow feasibility check, or path reversal). The paper's hardness
// belongs to its richer workload, not to the problem solved here.
//
// Alg. 1 and Alg. 3 skip every secure comparison whose outcome the two
// parties already hold, so no skip reveals anything the full protocol would
// not. Alg. 1 asks logDeg[u] ≤ logDeg[v] first; when the answer is no, the
// edge's second comparison, logDeg[v] ≤ logDeg[u], is implied by it and is
// not run. Alg. 3 keeps a memo per device: either it was a local workload
// maximum at its last check, or the neighbor that out-worked it. The state
// lists the devices whose workload moved since the last Alg. 3 run (a
// transition moves its device and every neighbor that gained it); only those
// and their neighbors are visited. A visited device whose own workload moved
// rescans its neighbors, as the paper's pseudo-code does. One whose workload
// did not move compares only against moved neighbors while it was a
// candidate, and rescans only when its recorded out-worker moved; every
// comparison it skips has both operands unchanged since the two parties last
// evaluated it. When no workload moved since the previous run, the
// tournament's max set is reused and the server only redraws its tie-break.
// Candidate sets, tie lists, server draws and control messages are those of
// the full quadratic scan; only the comparison count falls.
package balance

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

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
// covering constraint always holds after initialization. An edge costs one
// comparison when its first outcome is logDeg[u] > logDeg[v], which implies
// the second, and two otherwise.
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
		uKeeps := cmp.lessOrEqual(devices[u].Party, logDeg[u], devices[v].Party, logDeg[v])
		if uKeeps {
			retained[u] = append(retained[u], v)
		}
		if !uKeeps || cmp.lessOrEqual(devices[v].Party, logDeg[v], devices[u].Party, logDeg[u]) {
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
		if u < 0 || len(st.retained[u]) == 0 {
			res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
			continue
		}
		wl := len(st.retained[u]) // f(X_t): the current maximum workload
		// Device u samples the step size k ∈ [1, round(ln wl(u))] (Alg. 2
		// line 3) and k distinct members of N_u (line 4).
		kMax := max(int(math.Round(math.Log(float64(wl)))), 1)
		k := min(1+devices[u].Rng.Intn(kMax), wl)
		moved := st.sampleNeighbors(u, k, devices[u].Rng)
		tr := st.apply(u, moved)
		res.ControlMessages += len(moved) // u notifies each moved device

		uPrime := st.findMaxDevice(devices, server, cmp, res)
		fy := float64(len(st.retained[uPrime])) // f(X'_t)
		if cmp.acceptMH(devices[u].Party, float64(wl), devices[uPrime].Party, fy, 1-rng.Float64()) {
			res.Accepted++
		} else {
			st.revert(tr)
			res.ControlMessages += len(moved) // rollback notifications
		}
		res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
	}

	res.Retained = st.retained
	res.Workloads = make([]int, g.N)
	for v, r := range st.retained {
		res.Workloads[v] = len(r)
	}
	res.SMC = *stats
	return res, nil
}

// state maintains the assignment and the memo behind Alg. 3. A device's
// workload is len(retained[v]).
type state struct {
	g *graph.Graph
	// retained[v] is N_v, sorted ascending.
	retained [][]int
	// beatenBy[v] is the neighbor whose workload exceeded v's at v's last
	// candidacy check, or -1 if v was then a local workload maximum (an
	// Alg. 3 candidate).
	beatenBy []int
	// moved lists the devices whose workload changed since the last Alg. 3
	// run, and hasMoved flags them; visit flags moved devices and their
	// neighbors during a run.
	moved           []int
	hasMoved, visit []bool
	// Scratch reused across iterations: Alg. 3's candidate and best lists,
	// the members of N_u sampleNeighbors shuffles, and a transition's added
	// list. cvs and best hold the last run's lists until a workload moves.
	cvs, best, members, added []int
}

// newState takes ownership of retained.
func newState(g *graph.Graph, retained [][]int) *state {
	st := &state{g: g, retained: retained, beatenBy: make([]int, g.N),
		hasMoved: make([]bool, g.N), visit: make([]bool, g.N)}
	for v := range retained {
		slices.Sort(retained[v])
		st.beatenBy[v] = -1
		st.markMoved(v)
	}
	return st
}

func (st *state) maxWorkload() int {
	mx := 0
	for _, r := range st.retained {
		mx = max(mx, len(r))
	}
	return mx
}

// markMoved records that v's workload changed since the last Alg. 3 run.
func (st *state) markMoved(v int) {
	if !st.hasMoved[v] {
		st.hasMoved[v] = true
		st.moved = append(st.moved, v)
	}
}

// findMaxDevice runs Alg. 3: refresh the candidacy of the devices a moved
// workload can affect via secure comparisons with their neighbors, then run
// a secure tournament among candidates with server-side random
// tie-breaking. Returns -1 only for a graph without vertices.
func (st *state) findMaxDevice(devices []*fed.Device, server *fed.Server, cmp *comparer, res *Result) int {
	if len(st.moved) > 0 {
		st.refresh(devices, cmp)
	}
	if len(st.cvs) == 0 {
		return -1
	}
	// Candidate announcements and server responses.
	res.ControlMessages += 2 * len(st.cvs)
	return st.best[server.Rng.Intn(len(st.best))]
}

// refresh rechecks every device next to a moved workload, rebuilds the
// candidate list in ascending id and reruns the tournament, whose max set
// findMaxDevice reuses until a workload moves again.
func (st *state) refresh(devices []*fed.Device, cmp *comparer) {
	wl := func(v int) uint64 { return uint64(len(st.retained[v])) }
	for _, m := range st.moved {
		st.visit[m] = true
		for _, n := range st.g.Adj[m] {
			st.visit[n] = true
		}
	}
	cvs := st.cvs[:0]
	for v, visit := range st.visit {
		if visit {
			st.visit[v] = false
			st.beatenBy[v] = st.outWorker(v, devices, cmp)
		}
		if st.beatenBy[v] < 0 {
			cvs = append(cvs, v)
		}
	}
	for _, m := range st.moved {
		st.hasMoved[m] = false
	}
	st.moved = st.moved[:0]
	st.cvs = cvs
	if len(cvs) == 0 {
		return
	}
	best := append(st.best[:0], cvs[0])
	for _, c := range cvs[1:] {
		b := best[0]
		if cmp.less(devices[c].Party, wl(c), devices[b].Party, wl(b)) {
			continue // c strictly smaller
		}
		if cmp.less(devices[b].Party, wl(b), devices[c].Party, wl(c)) {
			best = append(best[:0], c) // c strictly larger
		} else {
			best = append(best, c) // tie
		}
	}
	st.best = best
}

// outWorker returns the first neighbor, in adjacency order, whose workload
// exceeds v's, or -1 if v is a local maximum. It compares only what v's memo
// does not settle: every neighbor when v's own workload or its recorded
// out-worker moved, only the moved neighbors when v was a candidate, and
// none when v's out-worker and v itself are unchanged.
func (st *state) outWorker(v int, devices []*fed.Device, cmp *comparer) int {
	b := st.beatenBy[v]
	all := st.hasMoved[v] || b >= 0 && st.hasMoved[b]
	if b >= 0 && !all {
		return b
	}
	wv := uint64(len(st.retained[v]))
	for _, n := range st.g.Adj[v] {
		// Every neighbor's workload must satisfy wl_n ≤ wl_v.
		if (all || st.hasMoved[n]) && !cmp.lessOrEqual(devices[n].Party, uint64(len(st.retained[n])), devices[v].Party, wv) {
			return n
		}
	}
	return -1
}

// sampleNeighbors draws k distinct members of N_u using device u's private
// randomness, shuffling N_u in ascending order for reproducibility. The
// result is scratch, valid until the next call.
func (st *state) sampleNeighbors(u, k int, rng *rand.Rand) []int {
	members := append(st.members[:0], st.retained[u]...)
	st.members = members
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
	tr := transition{u: u, moved: moved, added: st.added[:0]}
	for _, v := range moved {
		i, _ := slices.BinarySearch(st.retained[u], v)
		st.retained[u] = slices.Delete(st.retained[u], i, i+1)
		if i, found := slices.BinarySearch(st.retained[v], u); !found {
			st.retained[v] = slices.Insert(st.retained[v], i, u)
			tr.added = append(tr.added, v)
			st.markMoved(v)
		}
	}
	st.added = tr.added
	st.markMoved(u)
	return tr
}

// revert undoes a rejected transition.
func (st *state) revert(tr transition) {
	st.retained[tr.u] = append(st.retained[tr.u], tr.moved...)
	slices.Sort(st.retained[tr.u])
	for _, v := range tr.added {
		i, _ := slices.BinarySearch(st.retained[v], tr.u)
		st.retained[v] = slices.Delete(st.retained[v], i, i+1)
		st.markMoved(v)
	}
	st.markMoved(tr.u)
}

// VerifyCover checks the Eq. 10 covering constraint: every edge of g is
// retained by at least one endpoint. Used by tests and as a postcondition.
func VerifyCover(g *graph.Graph, retained [][]int) error {
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		if !slices.Contains(retained[u], v) && !slices.Contains(retained[v], u) {
			return fmt.Errorf("balance: edge (%d,%d) uncovered", u, v)
		}
	}
	return nil
}
