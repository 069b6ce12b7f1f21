package balance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"lumos/internal/fed"
	"lumos/internal/graph"
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
	// Two secure comparisons per edge.
	if stats.Comparisons != 2*g.NumEdges() {
		t.Fatalf("comparisons = %d, want %d", stats.Comparisons, 2*g.NumEdges())
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
// charged per gate.
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
	wantSMC := smc.Stats{Messages: 30641850, Bytes: 157567202, OTs: 8715904, Comparisons: 68093}
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
// 3 allocates nothing, whether it rechecks dirty devices under the secure
// comparator or only rescans the cached candidacies.
func TestFindMaxDeviceDoesNotAllocate(t *testing.T) {
	g, devices, server := testSetup(t, 150, 900, 10)
	cmp := &comparer{proto: smc.NewProtocol(32, &smc.Stats{}), secure: true}
	st := newState(g, GreedyInit(g, devices, cmp))
	res := &Result{}
	st.findMaxDevice(devices, server, cmp, res)
	v := 0
	allocs := testing.AllocsPerRun(100, func() {
		st.markChanged(v % g.N)
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

// TestTheorem2SmallGraphNearOptimal empirically checks the MCMC guarantee:
// on a graph small enough to brute-force, the balanced objective must land
// close to the optimum.
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
