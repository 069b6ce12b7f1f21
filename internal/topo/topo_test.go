package topo

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestRingDegreeAndConnectivity(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		tp, err := Ring(21, k)
		if err != nil {
			t.Fatalf("Ring(21,%d): %v", k, err)
		}
		for d := 0; d < tp.N(); d++ {
			if tp.Degree(d) != k {
				t.Fatalf("ring k=%d: device %d has degree %d", k, d, tp.Degree(d))
			}
		}
		if !tp.Connected() {
			t.Fatalf("ring k=%d disconnected", k)
		}
		if got := tp.NumEdges(); got != 21*k/2 {
			t.Fatalf("ring k=%d: %d edges, want %d", k, got, 21*k/2)
		}
	}
	if _, err := Ring(10, 3); err == nil {
		t.Fatal("odd ring degree accepted")
	}
	if _, err := Ring(4, 4); err == nil {
		t.Fatal("ring degree >= n accepted")
	}
}

func TestKRegularExactDegree(t *testing.T) {
	tp, err := KRegular(30, 4, 11)
	if err != nil {
		t.Fatalf("KRegular: %v", err)
	}
	for d := 0; d < tp.N(); d++ {
		if tp.Degree(d) != 4 {
			t.Fatalf("device %d has degree %d, want 4", d, tp.Degree(d))
		}
	}
	if !tp.Connected() {
		t.Fatal("4-regular over 30 devices came out disconnected")
	}
	if _, err := KRegular(5, 3, 1); err == nil {
		t.Fatal("odd n·k accepted")
	}
}

// TestKRegularRepairsDenseDraws: at k=8 a whole shuffle is simple with
// probability ~e^{−16}, so the retry loop alone never built these (N=180,
// seeds 1–5 all failed). The repaired pairing must be simple, exactly
// 8-regular, and the same graph every time for a seed.
func TestKRegularRepairsDenseDraws(t *testing.T) {
	sp, err := ParseSpec("k-regular:8")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		tp, err := sp.Build(180, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for d := 0; d < tp.N(); d++ {
			if tp.Degree(d) != 8 {
				t.Fatalf("seed %d: device %d has degree %d, want 8", seed, d, tp.Degree(d))
			}
		}
		es := edges(tp)
		if len(es) != 180*8/2 {
			t.Fatalf("seed %d: %d edges, want %d", seed, len(es), 180*8/2)
		}
		seen := make(map[[2]int]bool, len(es))
		for _, e := range es {
			if e[0] == e[1] || seen[e] {
				t.Fatalf("seed %d: edge %v is a self-loop or a repeat", seed, e)
			}
			seen[e] = true
		}
		again, err := sp.Build(180, seed)
		if err != nil {
			t.Fatalf("seed %d, second build: %v", seed, err)
		}
		if !reflect.DeepEqual(es, edges(again)) {
			t.Fatalf("seed %d: two builds produced different edge lists", seed)
		}
	}
}

// TestKRegularCompleteDegree: k = n−1 has one simple graph, the complete
// one, and every seed must build it. Shuffle and repair gave up on 69 of
// these 185 (n, seed) pairs, K7 at seeds 1 and 2 among them; the other 116
// built exactly this topology.
func TestKRegularCompleteDegree(t *testing.T) {
	for n := 4; n <= 40; n++ {
		complete, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed <= 4; seed++ {
			tp, err := KRegular(n, n-1, seed)
			if err != nil {
				t.Fatalf("KRegular(%d,%d,%d): %v", n, n-1, seed, err)
			}
			for d := 0; d < n; d++ {
				if tp.Degree(d) != n-1 {
					t.Fatalf("KRegular(%d,%d,%d): device %d has degree %d", n, n-1, seed, d, tp.Degree(d))
				}
			}
			if want := fmt.Sprintf("k-regular:%d", n-1); tp.Name() != want || !reflect.DeepEqual(edges(tp), edges(complete)) {
				t.Fatalf("KRegular(%d,%d,%d) = %q %v, want %q over every pair", n, n-1, seed, tp.Name(), edges(tp), want)
			}
		}
	}
}

// TestRepairMatchingGivesUp: when no swap can help (two devices with two
// stubs each admit no simple pairing) the repair spends its budget and
// reports failure instead of looping.
func TestRepairMatchingGivesUp(t *testing.T) {
	stubs := []int{0, 0, 1, 1}
	if repairMatching(stubs, rand.New(rand.NewSource(1))) {
		t.Fatalf("repair claimed success on an unrepairable pairing: %v", stubs)
	}
}

// TestKRegularPinnedEdgeLists: graphs the retry loop already built must not
// move when the repair step is added behind it. The hashes were taken before
// the repair existed; 24 devices at seed 7 is examples/topologystudy's
// k-regular:4 contact graph.
func TestKRegularPinnedEdgeLists(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want string
	}{
		{24, 7, "d4186adf2c9fd81b"},
		{180, 1, "bfa448a87f610175"},
		{180, 5, "6bc6c54935dff6f1"},
	} {
		tp, err := KRegular(tc.n, 4, tc.seed)
		if err != nil {
			t.Fatalf("KRegular(%d,4,%d): %v", tc.n, tc.seed, err)
		}
		h := fnv.New64a()
		for _, e := range edges(tp) {
			fmt.Fprintf(h, "%d-%d,", e[0], e[1])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Fatalf("KRegular(%d,4,%d) edge list moved: hash %s, want %s", tc.n, tc.seed, got, tc.want)
		}
	}
}

func TestBarabasiAlbertPowerLawTail(t *testing.T) {
	tp, err := BarabasiAlbert(300, 2, 7)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	if !tp.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Every non-core device attaches with exactly m=2 edges on top of the
	// complete K3 core, so the edge count is pinned: 3 + 2·297.
	if got, want := tp.NumEdges(), 3+2*297; got != want {
		t.Fatalf("edge count %d, want %d", got, want)
	}
	degs := make([]int, tp.N())
	for d := range degs {
		degs[d] = tp.Degree(d)
		if degs[d] < 2 {
			t.Fatalf("device %d has degree %d < m", d, degs[d])
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// Preferential attachment concentrates degree: the heaviest hub must be
	// far above the m≈2 typical device (a heavy tail the ER/regular
	// generators cannot produce), and the median must stay near m.
	if degs[0] < 5*degs[len(degs)/2] {
		t.Fatalf("no hub: max degree %d vs median %d", degs[0], degs[len(degs)/2])
	}
	if degs[len(degs)/2] > 4 {
		t.Fatalf("median degree %d, want near m=2", degs[len(degs)/2])
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	build := func() []*Topology {
		r, _ := Ring(24, 4)
		k, _ := KRegular(24, 3, 5)
		b, _ := BarabasiAlbert(24, 2, 5)
		c, _ := Complete(12)
		return []*Topology{r, k, b, c}
	}
	a, b := build(), build()
	for i := range a {
		if !reflect.DeepEqual(edges(a[i]), edges(b[i])) {
			t.Fatalf("%s: same seed produced different edge lists", a[i].Name())
		}
	}
	k1, _ := KRegular(24, 3, 5)
	k2, _ := KRegular(24, 3, 6)
	if reflect.DeepEqual(edges(k1), edges(k2)) {
		t.Fatal("different seeds produced identical k-regular graphs")
	}
}

func TestFromEdgesRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"self-loop", 4, [][2]int{{1, 1}}},
		{"out-of-range", 4, [][2]int{{0, 4}}},
		{"negative", 4, [][2]int{{-1, 2}}},
		{"duplicate", 4, [][2]int{{0, 1}, {1, 0}}},
		{"too-small", 1, nil},
	}
	for _, c := range cases {
		if _, err := FromEdges(c.name, c.n, c.edges); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	orig, err := BarabasiAlbert(20, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "contacts.json")
	if err := save(orig, path); err != nil {
		t.Fatal(err)
	}
	got, err := load(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() {
		t.Fatalf("%d nodes, want %d", got.N(), orig.N())
	}
	if !reflect.DeepEqual(edges(got), edges(orig)) {
		t.Fatal("edges changed across round-trip")
	}
	// save→load→save must be stable (canonical edge order).
	again := filepath.Join(dir, "again.json")
	if err := save(got, again); err != nil {
		t.Fatal(err)
	}
	t2, err := load(again, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edges(t2), edges(orig)) {
		t.Fatal("second round-trip drifted")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct{ name, body string }{
		{"missing-nodes", `{"edges": [[0,1]]}`},
		{"unknown-field", `{"nodes": 4, "edges": [[0,1]], "bogus": 1}`},
		{"self-loop", `{"nodes": 4, "edges": [[0,0]]}`},
		{"out-of-range", `{"nodes": 4, "edges": [[0,9]]}`},
		{"duplicate", `{"nodes": 4, "edges": [[0,1],[1,0]]}`},
		{"non-numeric", `{"nodes": 4, "edges": [["zero",1]]}`},
		{"string-count", `{"nodes": "four", "edges": [[0,1]]}`},
		// A CSV contact graph is not a contact-graph file, whatever its
		// extension: the reader takes JSON only.
		{"csv", "# nodes: 4\nsrc,dst\n0,1\n"},
	}
	for _, c := range cases {
		if _, err := readJSON(strings.NewReader(c.body), -1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	good := map[string]Spec{
		"ring":        {Kind: "ring", K: 2},
		"ring:4":      {Kind: "ring", K: 4},
		"k-regular:3": {Kind: "k-regular", K: 3},
		"ba:2":        {Kind: "barabasi-albert", K: 2},
		"complete":    {Kind: "complete"},
		"file:x.csv":  {Kind: "file", Path: "x.csv"},
	}
	for in, want := range good {
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{"", "torus", "ring:x", "ba", "k-regular", "file:", "complete:3"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): accepted", in)
		}
	}
	// Build round-trips the spec and enforces the file node-count match.
	sp, _ := ParseSpec("ring:4")
	tp, err := sp.Build(10, 1)
	if err != nil || tp.N() != 10 {
		t.Fatalf("Build ring:4 over 10: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.json")
	if err := save(tp, path); err != nil {
		t.Fatal(err)
	}
	fsp, _ := ParseSpec("file:" + path)
	if _, err := fsp.Build(10, 1); err != nil {
		t.Fatalf("file build: %v", err)
	}
	if _, err := fsp.Build(11, 1); err == nil {
		t.Fatal("file build accepted mismatched device count")
	}
}

func TestMetropolisWeightsDoublyStochastic(t *testing.T) {
	tp, err := BarabasiAlbert(40, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Row sums with self-weight = 1 - Σ neighbors must be exactly 1 by
	// construction; column sums equal row sums by symmetry of the weight.
	for d := 0; d < tp.N(); d++ {
		sum := 0.0
		for _, j := range tp.Neighbors(d) {
			w := tp.MetropolisWeight(d, j)
			if w2 := tp.MetropolisWeight(j, d); w2 != w {
				t.Fatalf("asymmetric weight (%d,%d): %v vs %v", d, j, w, w2)
			}
			sum += w
		}
		if self := 1 - sum; self <= 0 {
			t.Fatalf("device %d: non-positive self weight %v", d, self)
		}
	}
	// Complete graph: every weight is exactly 1/n.
	c, _ := Complete(8)
	for _, j := range c.Neighbors(0) {
		if w := c.MetropolisWeight(0, j); w != 1.0/8 {
			t.Fatalf("complete weight %v, want 1/8", w)
		}
	}
}

// save writes t to path in the contact-graph schema.
func save(t *Topology, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("topo: save contact graph: %w", err)
	}
	err = writeJSON(t, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// edges returns every undirected edge of t once, as [u, v] with u < v,
// sorted lexicographically — the canonical form the writers emit and tests
// compare.
func edges(t *Topology) [][2]int {
	out := make([][2]int, 0, t.NumEdges())
	for u, ns := range t.adj {
		for _, v := range ns {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}
