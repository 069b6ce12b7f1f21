// Package topo provides the peer contact graphs behind decentralized
// (gossip) Lumos scheduling: which devices can exchange model deltas
// directly. A Topology is an undirected simple graph over the device ids,
// produced by deterministic seeded generators (ring, k-regular,
// Barabási–Albert, complete) or loaded from a JSON contact-graph file (see
// file.go).
//
// Topologies feed sim.Scenario.Topology: under core.SchedGossip each device
// averages its model with its participating neighbors using
// Metropolis–Hastings weights (MetropolisWeight), the classic choice that
// makes the averaging matrix symmetric and doubly stochastic from local
// degree knowledge alone. On the complete topology with full participation
// the weights degenerate to the uniform 1/n average — in form, the bridge
// back to the star aggregator. No test pins that bridge as an identity; the
// simulator's gossip-vs-star test compares final metrics only (see
// internal/sim's gossipTrainer).
//
// Determinism: every generator consumes its seeded RNG in a fixed order and
// stores adjacency in sorted slices, so the same spec, size, and seed
// reproduce DeepEqual-identical topologies — a requirement inherited from
// the simulator's bit-reproducibility contract.
package topo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"lumos/internal/rng"
)

// Topology is an undirected simple graph over n devices: no self-loops, no
// duplicate edges, neighbor lists sorted ascending. The zero value is not
// usable; build one with a generator, FromEdges, or a file: spec.
type Topology struct {
	name string
	n    int
	adj  [][]int
}

// Name labels the topology (the generator spec, or the file's base name).
func (t *Topology) Name() string { return t.name }

// N is the device count.
func (t *Topology) N() int { return t.n }

// Degree is device d's neighbor count.
func (t *Topology) Degree(d int) int { return len(t.adj[d]) }

// Neighbors returns device d's neighbor ids, sorted ascending. The slice is
// owned by the topology; callers must not mutate it.
func (t *Topology) Neighbors(d int) []int { return t.adj[d] }

// NumEdges is the undirected edge count.
func (t *Topology) NumEdges() int {
	total := 0
	for _, ns := range t.adj {
		total += len(ns)
	}
	return total / 2
}

// Connected reports whether every device can reach every other — the
// precondition for gossip averaging to mix information fleet-wide.
func (t *Topology) Connected() bool {
	if t.n == 0 {
		return false
	}
	seen := make([]bool, t.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range t.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == t.n
}

// MetropolisWeight is the Metropolis–Hastings averaging weight device d
// assigns a neighbor j: 1/(1+max(deg(d),deg(j))). Built only from the two
// endpoints' degrees, it is symmetric, and with the self-weight defined as
// one minus the neighbor weights the averaging matrix is doubly stochastic
// — the standard decentralized-averaging construction. The caller is
// responsible for d and j actually being neighbors.
func (t *Topology) MetropolisWeight(d, j int) float64 {
	dd, dj := len(t.adj[d]), len(t.adj[j])
	if dj > dd {
		dd = dj
	}
	return 1 / float64(1+dd)
}

// FromEdges builds a validated topology from an undirected edge list.
// Endpoints must lie in [0, n); self-loops and duplicate edges (in either
// orientation) are rejected.
func FromEdges(name string, n int, edges [][2]int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: topology needs at least 2 devices, got %d", n)
	}
	seen := make(map[[2]int]bool, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("topo: edge %d (%d,%d) outside [0,%d)", i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("topo: edge %d is a self-loop on device %d", i, u)
		}
		key := pairKey(u, v)
		if seen[key] {
			return nil, fmt.Errorf("topo: duplicate edge %d (%d,%d)", i, u, v)
		}
		seen[key] = true
	}
	// Allocated only once the edges are known good, so a rejected list
	// costs nothing per device.
	t := &Topology{name: name, n: n, adj: make([][]int, n)}
	for _, e := range edges {
		u, v := e[0], e[1]
		t.adj[u] = append(t.adj[u], v)
		t.adj[v] = append(t.adj[v], u)
	}
	for d := range t.adj {
		sort.Ints(t.adj[d])
	}
	return t, nil
}

// Ring builds the circulant contact graph where device d talks to its k/2
// nearest ids on each side (indices mod n). k must be even, positive, and
// below n; k = 2 is the plain cycle. Ring topologies have the smallest
// per-round traffic (constant degree) but the slowest mixing.
func Ring(n, k int) (*Topology, error) {
	if k <= 0 || k%2 != 0 {
		return nil, fmt.Errorf("topo: ring degree %d must be positive and even", k)
	}
	if k >= n {
		return nil, fmt.Errorf("topo: ring degree %d needs more than %d devices", k, k)
	}
	var edges [][2]int
	for d := 0; d < n; d++ {
		for off := 1; off <= k/2; off++ {
			v := (d + off) % n
			// n even and off == n/2 would emit each chord twice; u<v dedups.
			edges = append(edges, pairKey(d, v))
		}
	}
	t, err := FromEdges(fmt.Sprintf("ring:%d", k), n, dedupe(edges))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// dedupe removes repeated normalized edges (Ring's wrap-around chords on
// even n with k = n-ish can coincide).
func dedupe(edges [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// Complete builds the all-pairs contact graph: every device is everyone's
// neighbor. With full participation its Metropolis weights are the uniform
// 1/n — gossip degenerates to the star aggregator's average, which is what
// the gossip-vs-star equivalence test pins.
func Complete(n int) (*Topology, error) {
	return FromEdges("complete", n, allPairs(n))
}

// allPairs lists every pair {u, v} of n devices, u < v, in order.
func allPairs(n int) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// KRegular builds a random k-regular contact graph by seeded stub matching
// (the configuration model): each device exposes k stubs and a seeded shuffle
// pairs them. A whole shuffle comes out simple with probability about
// e^{−(k²−1)/4}, so the draw is retried while that is likely to work, and the
// last draw's few self-loops and repeated edges are then repaired in place
// (repairMatching). At k = n−1 the only simple graph is the complete one,
// which is built directly: a Topology keeps sorted adjacency, not pairing
// order, so a matching that came out simple would give the same value, and
// near-complete draws are where the repair runs out of swaps. n·k must be
// even and k < n. The result is deterministic in (n, k, seed).
func KRegular(n, k int, seed int64) (*Topology, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topo: k-regular degree %d must be positive", k)
	}
	if k >= n {
		return nil, fmt.Errorf("topo: k-regular degree %d needs more than %d devices", k, k)
	}
	if n*k%2 != 0 {
		return nil, fmt.Errorf("topo: k-regular needs n·k even, got n=%d k=%d", n, k)
	}
	if k == n-1 {
		return FromEdges(fmt.Sprintf("k-regular:%d", k), n, allPairs(n))
	}
	rng := rng.Stream(seed, rng.KRegular, 0)
	stubs := make([]int, n*k)
	for i := range stubs {
		stubs[i] = i / k
	}
	// The retry loop runs first and unchanged, so every (n, k, seed) it ever
	// built keeps its edge list.
	const maxTries = 1000
	for try := 0; try < maxTries; try++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if matchingSimple(stubs) {
			return kRegularFromStubs(n, k, stubs)
		}
	}
	if !repairMatching(stubs, rng) {
		return nil, fmt.Errorf("topo: no simple %d-regular matching over %d devices after %d tries and repair", k, n, maxTries)
	}
	return kRegularFromStubs(n, k, stubs)
}

// pairKey is the canonical (smaller id first) form of the edge {u, v}.
func pairKey(u, v int) [2]int {
	if u > v {
		return [2]int{v, u}
	}
	return [2]int{u, v}
}

// matchingSimple reports whether pairing stubs[2i] with stubs[2i+1] yields
// no self-loop and no repeated edge.
func matchingSimple(stubs []int) bool {
	seen := make(map[[2]int]bool, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		key := pairKey(u, v)
		if u == v || seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// kRegularFromStubs builds the topology of a simple stub pairing, edges in
// pair order.
func kRegularFromStubs(n, k int, stubs []int) (*Topology, error) {
	edges := make([][2]int, 0, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		edges = append(edges, pairKey(stubs[i], stubs[i+1]))
	}
	return FromEdges(fmt.Sprintf("k-regular:%d", k), n, edges)
}

// repairMatching makes a stub pairing simple with seeded double-edge swaps:
// a pair that is a self-loop or repeats another pair trades endpoints with a
// random other pair, (a,b),(c,d) → (a,c),(b,d), which keeps every device's
// degree. A swap is taken only when both edges it creates are new, so each
// one removes a defect and adds none, and one pass over the pairs suffices.
// It gives up (false) when the attempt budget runs out — near-complete
// graphs, where almost no swap lands on two free edges.
func repairMatching(stubs []int, rng *rand.Rand) bool {
	pairs := len(stubs) / 2
	count := make(map[[2]int]int, pairs)
	for i := 0; i < pairs; i++ {
		count[pairKey(stubs[2*i], stubs[2*i+1])]++
	}
	budget := 100 * pairs
	for i := 0; i < pairs; i++ {
		for stubs[2*i] == stubs[2*i+1] || count[pairKey(stubs[2*i], stubs[2*i+1])] > 1 {
			if budget == 0 {
				return false
			}
			budget--
			j := rng.Intn(pairs)
			a, b, c, d := stubs[2*i], stubs[2*i+1], stubs[2*j], stubs[2*j+1]
			if rng.Intn(2) == 1 {
				c, d = d, c
			}
			ac, bd := pairKey(a, c), pairKey(b, d)
			if j == i || a == c || b == d || ac == bd || count[ac] > 0 || count[bd] > 0 {
				continue
			}
			count[pairKey(a, b)]--
			count[pairKey(c, d)]--
			count[ac]++
			count[bd]++
			stubs[2*i], stubs[2*i+1], stubs[2*j], stubs[2*j+1] = a, c, b, d
		}
	}
	return true
}

// BarabasiAlbert builds a scale-free contact graph by preferential
// attachment: a complete seed core of m+1 devices, then every new device
// attaches to m distinct existing devices with probability proportional to
// their current degree. Hub devices pay O(degree) gossip traffic — the
// heterogeneous-topology case the ROADMAP's decentralized direction is
// about. Deterministic in (n, m, seed).
func BarabasiAlbert(n, m int, seed int64) (*Topology, error) {
	if m <= 0 {
		return nil, fmt.Errorf("topo: barabasi-albert attachment count %d must be positive", m)
	}
	if m+1 >= n {
		return nil, fmt.Errorf("topo: barabasi-albert with m=%d needs more than %d devices", m, m+1)
	}
	rng := rng.Stream(seed, rng.BarabasiAlbert, 0)
	var edges [][2]int
	// targets repeats each endpoint once per incident edge, so a uniform
	// draw from it is degree-proportional.
	var targets []int
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, [2]int{u, v})
			targets = append(targets, u, v)
		}
	}
	for d := m + 1; d < n; d++ {
		chosen := make(map[int]bool, m)
		picks := make([]int, 0, m)
		for len(picks) < m {
			v := targets[rng.Intn(len(targets))]
			if chosen[v] {
				continue
			}
			chosen[v] = true
			picks = append(picks, v)
		}
		// Attach in pick order (deterministic), then extend the target pool.
		for _, v := range picks {
			edges = append(edges, [2]int{v, d})
			targets = append(targets, v, d)
		}
	}
	return FromEdges(fmt.Sprintf("barabasi-albert:%d", m), n, edges)
}

// Spec is a parsed topology description — the -topology CLI surface and the
// scenario-construction path that defers the device count to Build time.
type Spec struct {
	// Kind is one of "ring", "k-regular", "barabasi-albert", "complete",
	// "file".
	Kind string
	// K parameterizes the generator kinds: ring degree, regular degree, or
	// BA attachment count.
	K int
	// Path names the contact-graph file for Kind "file".
	Path string
}

// ParseSpec parses a topology spec string:
//
//	ring            plain cycle (degree 2)
//	ring:<k>        circulant ring of even degree k
//	k-regular:<k>   random k-regular graph (seeded stub matching)
//	ba:<m>          Barabási–Albert with m attachments per device
//	barabasi-albert:<m>  same, long form
//	complete        all-pairs
//	file:<path>     JSON contact-graph file (see file.go)
func ParseSpec(s string) (Spec, error) {
	kind, arg := s, ""
	if i := strings.Index(s, ":"); i >= 0 {
		kind, arg = s[:i], s[i+1:]
	}
	parseK := func(name string, def int) (int, error) {
		if arg == "" {
			if def > 0 {
				return def, nil
			}
			return 0, fmt.Errorf("topo: %s needs a parameter, e.g. %q", name, name+":2")
		}
		k, err := strconv.Atoi(arg)
		if err != nil {
			return 0, fmt.Errorf("topo: bad %s parameter %q: %w", name, arg, err)
		}
		return k, nil
	}
	switch kind {
	case "ring":
		k, err := parseK("ring", 2)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: "ring", K: k}, nil
	case "k-regular", "kregular", "regular":
		k, err := parseK("k-regular", 0)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: "k-regular", K: k}, nil
	case "ba", "barabasi-albert":
		k, err := parseK("barabasi-albert", 0)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Kind: "barabasi-albert", K: k}, nil
	case "complete", "full":
		if arg != "" {
			return Spec{}, fmt.Errorf("topo: complete takes no parameter, got %q", arg)
		}
		return Spec{Kind: "complete"}, nil
	case "file":
		if arg == "" {
			return Spec{}, fmt.Errorf("topo: file spec needs a path, e.g. \"file:contacts.json\"")
		}
		return Spec{Kind: "file", Path: arg}, nil
	default:
		return Spec{}, fmt.Errorf("topo: unknown topology %q (want ring[:k]|k-regular:<k>|ba:<m>|complete|file:<path>)", s)
	}
}

// String renders the spec back in its parseable form.
func (sp Spec) String() string {
	switch sp.Kind {
	case "ring", "k-regular", "barabasi-albert":
		return fmt.Sprintf("%s:%d", sp.Kind, sp.K)
	case "file":
		return "file:" + sp.Path
	default:
		return sp.Kind
	}
}

// Build materializes the spec over n devices. Generator kinds draw from the
// seed; a file spec loads the contact graph and requires its device count
// to match n exactly — a contact graph for the wrong fleet is an error, not
// a resample, and is refused before anything is sized by its count.
func (sp Spec) Build(n int, seed int64) (*Topology, error) {
	switch sp.Kind {
	case "ring":
		return Ring(n, sp.K)
	case "k-regular":
		return KRegular(n, sp.K, seed)
	case "barabasi-albert":
		return BarabasiAlbert(n, sp.K, seed)
	case "complete":
		return Complete(n)
	case "file":
		return load(sp.Path, n)
	default:
		return nil, fmt.Errorf("topo: unknown spec kind %q", sp.Kind)
	}
}
