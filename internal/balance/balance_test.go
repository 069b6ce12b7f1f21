package balance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/rng"
	"lumos/internal/smc"
)

func testSetup(t *testing.T, n, m int, seed int64) (*graph.Graph, []*fed.Device, *fed.Server) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "bal", N: n, M: m, Classes: 2, FeatureDim: 8, PowerLaw: 2.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, fed.NewDevices(g, seed), fed.NewServer(seed)
}

func TestGreedyInitCoversAndTrims(t *testing.T) {
	g, devices, _ := testSetup(t, 150, 900, 1)
	stats := &smc.Stats{}
	cmp := &comparer{proto: smc.NewProtocol(32, stats), secure: true}
	retained := GreedyInit(g, devices, cmp)
	if err := VerifyCover(g, retained); err != nil {
		t.Fatal(err)
	}
	// Greedy must reduce total workload below the untrimmed 2|E|.
	total := 0
	for _, r := range retained {
		total += len(r)
	}
	if total >= 2*g.NumEdges() {
		t.Fatalf("greedy kept everything: %d ≥ %d", total, 2*g.NumEdges())
	}
	if total < g.NumEdges() {
		t.Fatalf("covering violated in total: %d < %d", total, g.NumEdges())
	}
	// One secure comparison per edge, plus a second wherever the first,
	// logDeg[u] ≤ logDeg[v], holds: its "no" already implies
	// logDeg[v] ≤ logDeg[u].
	want := g.NumEdges()
	logDeg := func(v int) float64 { return math.Round(math.Log(float64(g.Degree(v)))) }
	for _, e := range g.Edges {
		if logDeg(e[0]) <= logDeg(e[1]) {
			want++
		}
	}
	if stats.Comparisons != want || want != 1551 {
		t.Fatalf("comparisons = %d, want %d (recorded 1551 of 2|E| = %d)", stats.Comparisons, want, 2*g.NumEdges())
	}
}

func TestGreedyTrimsHighDegreeSide(t *testing.T) {
	// Star graph: hub 0 with 30 spokes. round(ln 30)=3 > round(ln 1)=0, so
	// the hub must drop every spoke and every spoke keeps the hub.
	edges := make([][2]int, 30)
	for i := range edges {
		edges[i] = [2]int{0, i + 1}
	}
	g, err := graph.NewFromEdges(31, edges, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	devices := fed.NewDevices(g, 1)
	cmp := &comparer{proto: smc.NewProtocol(32, &smc.Stats{}), secure: true}
	retained := GreedyInit(g, devices, cmp)
	if len(retained[0]) != 0 {
		t.Fatalf("hub retained %d spokes, want 0", len(retained[0]))
	}
	for v := 1; v <= 30; v++ {
		if len(retained[v]) != 1 {
			t.Fatalf("spoke %d retained %v", v, retained[v])
		}
	}
}

func TestWithoutTrimmingIsDegrees(t *testing.T) {
	g, _, _ := testSetup(t, 80, 300, 2)
	r := WithoutTrimming(g)
	for v := 0; v < g.N; v++ {
		if r.Workloads[v] != g.Degree(v) {
			t.Fatalf("workload[%d] = %d, degree %d", v, r.Workloads[v], g.Degree(v))
		}
	}
	if r.MaxWorkload() != g.MaxDegree() {
		t.Fatal("max workload must equal max degree")
	}
}

func TestBalanceReducesMaxWorkload(t *testing.T) {
	g, devices, server := testSetup(t, 200, 1400, 3)
	res, err := Balance(g, devices, server, Config{Iterations: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCover(g, res.Retained); err != nil {
		t.Fatal(err)
	}
	if res.MaxWorkload() >= g.MaxDegree() {
		t.Fatalf("balancing did not beat raw degrees: %d vs %d", res.MaxWorkload(), g.MaxDegree())
	}
	// The paper's Fig. 7: trimmed max should be several times below raw max.
	if float64(res.MaxWorkload()) > 0.6*float64(g.MaxDegree()) {
		t.Fatalf("weak trimming: %d vs max degree %d", res.MaxWorkload(), g.MaxDegree())
	}
	if len(res.MaxTrace) != 121 {
		t.Fatalf("trace length %d", len(res.MaxTrace))
	}
	if res.Workloads[0] != len(res.Retained[0]) {
		t.Fatal("workloads inconsistent with retained sets")
	}
}

func TestBalanceMCMCImprovesOnGreedy(t *testing.T) {
	g, devices, server := testSetup(t, 200, 1400, 4)
	res, err := Balance(g, devices, server, Config{Iterations: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	greedyMax := res.MaxTrace[0]
	finalMax := res.MaxTrace[len(res.MaxTrace)-1]
	if finalMax > greedyMax {
		t.Fatalf("MCMC worsened the objective: %d -> %d", greedyMax, finalMax)
	}
	if res.Accepted == 0 {
		t.Fatal("no transitions accepted in 200 iterations")
	}
}

// TestBalanceSecureMatchesPlaintext: comparison outcomes are identical, so
// every Result field must agree — the assignment, the MCMC trace, and the
// traffic, which both paths charge through the same smc formula — at the
// narrowest accepted comparator width, the default, and the widest.
func TestBalanceSecureMatchesPlaintext(t *testing.T) {
	g, _, _ := testSetup(t, 100, 600, 5)
	for _, width := range []int{minBits(g), 32, 64} {
		run := func(secure bool) *Result {
			res, err := Balance(g, fed.NewDevices(g, 5), fed.NewServer(5),
				Config{Iterations: 40, Bits: width, Secure: secure, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		resSecure, resPlain := run(true), run(false)
		if !reflect.DeepEqual(resSecure, resPlain) {
			t.Fatalf("width %d: secure and plaintext results differ:\nsecure    %+v\nplaintext %+v",
				width, resSecure, resPlain)
		}
		if resSecure.Accepted == 0 {
			t.Fatalf("width %d: no MH proposal accepted", width)
		}
	}
}

// resultHash is an FNV-64a digest of every assignment-shaped Result field:
// Retained (length-prefixed per device), Workloads, MaxTrace, Accepted and
// ControlMessages.
func resultHash(r *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, ret := range r.Retained {
		put(len(ret))
		for _, u := range ret {
			put(u)
		}
	}
	for _, w := range r.Workloads {
		put(w)
	}
	for _, m := range r.MaxTrace {
		put(m)
	}
	put(r.Accepted)
	put(r.ControlMessages)
	return h.Sum64()
}

// TestBalanceSecureGolden pins the secure tree constructor on the end-to-end
// benchmark's epoch-gcn-secure system (facebook-like ×0.025, seed 7; the
// supervised split trains on the full graph; 100 MCMC iterations): the
// assignment and its exact secure-comparison traffic. The values were
// recorded with the bit-serial GMW evaluator; any evaluator must reproduce
// them, because only the comparison bits steer the MCMC and the traffic is
// charged per gate. The counters were re-recorded when Alg. 1 and Alg. 3
// stopped re-running comparisons whose outcome both parties already held
// (68 093 comparisons before); the assignment hash did not move.
func TestBalanceSecureGolden(t *testing.T) {
	g, err := graph.FacebookLike(0.025, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Balance(g, fed.NewDevices(g, 7), fed.NewServer(7), Config{Iterations: 100, Secure: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = 0x38520b844899273
	wantSMC := smc.Stats{Messages: 10019700, Bytes: 51523524, OTs: 2850048, Comparisons: 22266}
	if got := resultHash(res); got != wantHash {
		t.Errorf("result hash = %#x, want %#x", got, uint64(wantHash))
	}
	if res.SMC != wantSMC {
		t.Errorf("SMC = %+v, want %+v", res.SMC, wantSMC)
	}
	if res.MaxWorkload() != 16 {
		t.Errorf("max workload = %d, want 16", res.MaxWorkload())
	}
}

// TestFindMaxDeviceDoesNotAllocate: once its scratch lists have grown, Alg.
// 3 allocates nothing, whether it rechecks the devices next to a moved
// workload under the secure comparator or reuses its last tournament.
func TestFindMaxDeviceDoesNotAllocate(t *testing.T) {
	g, devices, server := testSetup(t, 150, 900, 10)
	cmp := &comparer{proto: smc.NewProtocol(32, &smc.Stats{}), secure: true}
	st := newState(g, GreedyInit(g, devices, cmp))
	res := &Result{}
	st.findMaxDevice(devices, server, cmp, res)
	v := 0
	allocs := testing.AllocsPerRun(100, func() {
		st.markMoved(v % g.N)
		v += 7
		st.findMaxDevice(devices, server, cmp, res)
		st.findMaxDevice(devices, server, cmp, res)
	})
	if allocs != 0 {
		t.Fatalf("findMaxDevice: %v allocations per call pair, want 0", allocs)
	}
}

func TestBalanceZeroIterationsIsGreedy(t *testing.T) {
	g, devices, server := testSetup(t, 80, 400, 6)
	res, err := Balance(g, devices, server, Config{Iterations: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MaxTrace) != 1 {
		t.Fatalf("trace length %d for 0 iterations", len(res.MaxTrace))
	}
	if err := VerifyCover(g, res.Retained); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceValidation(t *testing.T) {
	g, devices, server := testSetup(t, 80, 400, 7)
	if _, err := Balance(g, devices, server, Config{Iterations: -1}); err == nil {
		t.Fatal("negative iterations must error")
	}
	if _, err := Balance(g, devices[:10], server, Config{}); err == nil {
		t.Fatal("device count mismatch must error")
	}
	if _, err := Balance(g, devices, server, Config{Bits: 4}); err == nil {
		t.Fatal("tiny bit width must error")
	}
	// A width in [8,64] that cannot hold max degree × 2^FracBits would
	// saturate both MH operands and reject every proposal: refused in both
	// modes, naming the minimum.
	need := minBits(g)
	if need <= 8 {
		t.Fatalf("minBits = %d: the too-narrow case would not be in [8,64]", need)
	}
	for _, secure := range []bool{true, false} {
		_, err := Balance(g, devices, server, Config{Bits: need - 1, Secure: secure})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at least %d bits", need)) {
			t.Fatalf("secure=%v width %d: err = %v, want one naming %d bits", secure, need-1, err, need)
		}
		if _, err := Balance(g, devices, server, Config{Bits: need, Secure: secure}); err != nil {
			t.Fatalf("secure=%v width %d: %v", secure, need, err)
		}
	}
}

// TestTheorem2SmallGraphNearOptimal empirically checks the MCMC guarantee on
// graphs small enough to brute-force: K4, whose result must land within one
// of the optimum, then 120 random graphs, where no state the run reports may
// lie below the optimum and the share that reaches it is logged.
func TestTheorem2SmallGraphNearOptimal(t *testing.T) {
	// K4: 6 edges; optimal min-max assignment gives every vertex ≤ 2.
	var edges [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := graph.NewFromEdges(4, edges, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := bruteForceOptimum(g)
	if opt != 2 {
		t.Fatalf("brute force says optimum %d, expected 2 for K4", opt)
	}
	devices := fed.NewDevices(g, 8)
	server := fed.NewServer(8)
	res, err := Balance(g, devices, server, Config{Iterations: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWorkload() > opt+1 {
		t.Fatalf("MCMC result %d far from optimum %d", res.MaxWorkload(), opt)
	}

	r := rand.New(rand.NewSource(12))
	const graphs = 120
	gaps := map[int]int{}
	for i := range graphs {
		// 3–8 vertices and at most 9 edges keep the 3^|E| enumeration small.
		n := 3 + r.Intn(6)
		g := randomGraph(t, r, graphKinds[i%len(graphKinds)], n, 1+r.Intn(9))
		opt := bruteForceOptimum(g)
		seed := int64(100 + i)
		res, err := Balance(g, fed.NewDevices(g, seed), fed.NewServer(seed), Config{Iterations: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCover(g, res.Retained); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		for it, m := range res.MaxTrace {
			if m < opt {
				t.Fatalf("graph %d (%d vertices, %d edges): iteration %d reports max workload %d below the optimum %d",
					i, g.N, g.NumEdges(), it, m, opt)
			}
		}
		gaps[res.MaxWorkload()-opt]++
	}
	t.Logf("Alg. 2 reached the optimum on %d of %d random graphs; gap histogram %v", gaps[0], graphs, gaps)
}

// bruteForceOptimum enumerates all feasible 0-1 assignments (each edge to
// one or both endpoints) and returns the minimal maximum workload.
func bruteForceOptimum(g *graph.Graph) int {
	m := len(g.Edges)
	best := math.MaxInt
	// Each edge has 3 feasible states: u-only, v-only, both.
	var rec func(i int, wl []int)
	rec = func(i int, wl []int) {
		if i == m {
			mx := 0
			for _, w := range wl {
				if w > mx {
					mx = w
				}
			}
			if mx < best {
				best = mx
			}
			return
		}
		e := g.Edges[i]
		for _, c := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
			wl[e[0]] += c[0]
			wl[e[1]] += c[1]
			rec(i+1, wl)
			wl[e[0]] -= c[0]
			wl[e[1]] -= c[1]
		}
	}
	rec(0, make([]int, g.N))
	return best
}

func TestVerifyCoverDetectsViolation(t *testing.T) {
	g, _, _ := testSetup(t, 20, 40, 9)
	retained := make([][]int, g.N) // nothing retained anywhere
	if err := VerifyCover(g, retained); err == nil {
		t.Fatal("expected cover violation")
	}
}

// graphKinds are randomGraph's shapes.
var graphKinds = []string{"erdos-renyi", "power-law", "star"}

// randomGraph draws an n-vertex graph with at most m edges (duplicates and
// self-loops are dropped) of the given kind:
//   - erdos-renyi: endpoints uniform over the vertices;
//   - power-law: Chung–Lu, endpoints drawn ∝ (i+1)^(−1/(γ−1)), γ ∈ [2, 3];
//   - star: a hub joined to up to m random vertices, and uniform edges for
//     a random part of what is left of m.
//
// Vertices no edge reaches stay isolated.
func randomGraph(t *testing.T, r *rand.Rand, kind string, n, m int) *graph.Graph {
	t.Helper()
	var edges [][2]int
	switch kind {
	case "erdos-renyi":
		for range m {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
	case "power-law":
		gamma := 2 + r.Float64()
		cum := make([]float64, n)
		total := 0.0
		for i := range cum {
			total += math.Pow(float64(i+1), -1/(gamma-1))
			cum[i] = total
		}
		draw := func() int {
			i, _ := slices.BinarySearch(cum, r.Float64()*total)
			return min(i, n-1)
		}
		for range m {
			edges = append(edges, [2]int{draw(), draw()})
		}
	case "star":
		hub := r.Intn(n)
		for _, v := range r.Perm(n)[:min(m, n)] {
			edges = append(edges, [2]int{hub, v})
		}
		for range r.Intn(m - len(edges) + 1) {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
	default:
		t.Fatalf("unknown graph kind %q", kind)
	}
	g, err := graph.NewFromEdges(n, edges, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fullRescan is the Alg. 3 the memo replaced, kept as its oracle: a
// transition flags its device, every device it moved and all their
// neighbors; a flagged device compares against every neighbor until one
// out-works it; and every call reruns the tournament.
type fullRescan struct {
	isCand, dirty []bool
	cvs, best     []int
}

func newFullRescan(n int) *fullRescan {
	o := &fullRescan{isCand: make([]bool, n), dirty: make([]bool, n)}
	for v := range o.dirty {
		o.dirty[v] = true
	}
	return o
}

func (o *fullRescan) markChanged(g *graph.Graph, v int) {
	o.dirty[v] = true
	for _, n := range g.Adj[v] {
		o.dirty[n] = true
	}
}

// find returns the candidate and best lists for st's assignment.
func (o *fullRescan) find(st *state, devices []*fed.Device, cmp *comparer) (cvs, best []int) {
	wl := func(v int) uint64 { return uint64(len(st.retained[v])) }
	o.cvs = o.cvs[:0]
	for v, dirty := range o.dirty {
		if dirty {
			o.dirty[v] = false
			o.isCand[v] = true
			for _, n := range st.g.Adj[v] {
				if !cmp.lessOrEqual(devices[n].Party, wl(n), devices[v].Party, wl(v)) {
					o.isCand[v] = false
					break
				}
			}
		}
		if o.isCand[v] {
			o.cvs = append(o.cvs, v)
		}
	}
	o.best = o.best[:0]
	if len(o.cvs) == 0 {
		return o.cvs, o.best
	}
	o.best = append(o.best, o.cvs[0])
	for _, c := range o.cvs[1:] {
		b := o.best[0]
		if cmp.less(devices[c].Party, wl(c), devices[b].Party, wl(b)) {
			continue
		}
		if cmp.less(devices[b].Party, wl(b), devices[c].Party, wl(c)) {
			o.best = append(o.best[:0], c)
		} else {
			o.best = append(o.best, c)
		}
	}
	return o.cvs, o.best
}

// runAgainstFullRescan runs Balance's MCMC loop on g. At every Alg. 3 call
// it checks the memo's candidate and best lists against fullRescan's on the
// same assignment, and that the memo ran no more comparisons. At the end the
// run must equal Balance's own. It returns both sides' Alg. 3 comparisons.
func runAgainstFullRescan(t *testing.T, g *graph.Graph, cfg Config) (memo, full int) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	devices, server := fed.NewDevices(g, cfg.Seed), fed.NewServer(cfg.Seed)
	stats, oracleStats := &smc.Stats{}, &smc.Stats{}
	cmp := &comparer{proto: smc.NewProtocol(cfg.Bits, stats), secure: cfg.Secure}
	oracleCmp := &comparer{proto: smc.NewProtocol(cfg.Bits, oracleStats), secure: cfg.Secure}
	st := newState(g, GreedyInit(g, devices, cmp))
	oracle := newFullRescan(g.N)
	res := &Result{MaxTrace: []int{st.maxWorkload()}}
	calls := 0
	find := func() int {
		calls++
		before, oracleBefore := stats.Comparisons, oracleStats.Comparisons
		cvs, best := oracle.find(st, devices, oracleCmp)
		u := st.findMaxDevice(devices, server, cmp, res)
		if !slices.Equal(st.cvs, cvs) || !slices.Equal(st.best, best) {
			t.Fatalf("Alg. 3 call %d: memo candidates %v best %v, full rescan %v best %v",
				calls, st.cvs, st.best, cvs, best)
		}
		m, f := stats.Comparisons-before, oracleStats.Comparisons-oracleBefore
		if m > f {
			t.Fatalf("Alg. 3 call %d: memo ran %d comparisons, full rescan %d", calls, m, f)
		}
		memo, full = memo+m, full+f
		return u
	}
	mark := func(tr transition) {
		for _, v := range tr.moved {
			oracle.markChanged(g, v)
		}
		oracle.markChanged(g, tr.u)
	}
	mh := rng.Stream(cfg.Seed, rng.Proposals, 0)
	for range cfg.Iterations {
		u := find()
		if u < 0 || len(st.retained[u]) == 0 {
			res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
			continue
		}
		wl := len(st.retained[u])
		kMax := max(int(math.Round(math.Log(float64(wl)))), 1)
		k := min(1+devices[u].Rng.Intn(kMax), wl)
		moved := st.sampleNeighbors(u, k, devices[u].Rng)
		tr := st.apply(u, moved)
		mark(tr)
		res.ControlMessages += len(moved)
		uPrime := find()
		fy := float64(len(st.retained[uPrime]))
		if cmp.acceptMH(devices[u].Party, float64(wl), devices[uPrime].Party, fy, 1-mh.Float64()) {
			res.Accepted++
		} else {
			st.revert(tr)
			mark(tr)
			res.ControlMessages += len(moved)
		}
		res.MaxTrace = append(res.MaxTrace, st.maxWorkload())
	}
	want, err := Balance(g, fed.NewDevices(g, cfg.Seed), fed.NewServer(cfg.Seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.retained, want.Retained) || !slices.Equal(res.MaxTrace, want.MaxTrace) ||
		res.Accepted != want.Accepted || res.ControlMessages != want.ControlMessages || *stats != want.SMC {
		t.Fatal("the checked loop diverged from Balance")
	}
	return memo, full
}

// TestFindMaxDeviceMatchesFullRescan: over 120 random graphs (Erdős–Rényi,
// power-law and stars, isolated vertices included), at every Alg. 3 call the
// memo's candidate set and best list equal a full rescan's and it runs no
// more comparisons; plaintext on every graph, secure on those of ≤ 30
// vertices.
func TestFindMaxDeviceMatchesFullRescan(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var memo, full, secure int
	for i := range 120 {
		n := 2 + r.Intn(59)
		kind := graphKinds[i%len(graphKinds)]
		g := randomGraph(t, r, kind, n, r.Intn(3*n+1))
		for _, sec := range []bool{false, true} {
			if sec && n > 30 {
				continue
			}
			t.Run(fmt.Sprintf("%d-%s-n%d-m%d-secure=%v", i, kind, n, g.NumEdges(), sec), func(t *testing.T) {
				m, f := runAgainstFullRescan(t, g, Config{Iterations: 60, Secure: sec, Seed: int64(i)})
				memo, full = memo+m, full+f
			})
			if sec {
				secure++
			}
		}
	}
	t.Logf("Alg. 3 comparisons: memo %d, full rescan %d; %d graphs also run secure", memo, full, secure)
}
