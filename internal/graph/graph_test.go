package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lumos/internal/tensor"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g, err := NewFromEdges(n, edges, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewFromEdgesDedupAndCanonical(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 3}, {2, 3}})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (dedup + self-loop dropped)", g.NumEdges())
	}
	for _, e := range g.Edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonical", e)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge must be symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 1) || g.HasEdge(-1, 0) {
		t.Fatal("HasEdge false positives")
	}
}

func TestNewFromEdgesValidation(t *testing.T) {
	if _, err := NewFromEdges(0, nil, nil, nil, 0); err == nil {
		t.Fatal("expected error for empty graph")
	}
	if _, err := NewFromEdges(2, [][2]int{{0, 5}}, nil, nil, 0); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := NewFromEdges(2, nil, tensor.New(3, 2), nil, 0); err == nil {
		t.Fatal("expected error for feature row mismatch")
	}
	if _, err := NewFromEdges(2, nil, nil, []int{0}, 2); err == nil {
		t.Fatal("expected error for label length mismatch")
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatal("max degree wrong")
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("avg degree = %v", g.AvgDegree())
	}
	st := g.ComputeStats()
	if st.N != 4 || st.M != 3 || st.MaxDeg != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubgraphKeepsAttributes(t *testing.T) {
	feats := tensor.New(3, 2)
	g, err := NewFromEdges(3, [][2]int{{0, 1}, {1, 2}}, feats, []int{0, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := g.Subgraph([][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumEdges() != 1 || sg.N != 3 || sg.Features != feats || sg.Labels == nil {
		t.Fatalf("subgraph lost attributes")
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	g, err := Generate(GenConfig{Name: "t", N: 200, M: 900, Classes: 3, FeatureDim: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 200 || g.NumEdges() != 900 {
		t.Fatalf("generated %d vertices, %d edges", g.N, g.NumEdges())
	}
	if g.FeatureDim() != 24 || g.NumClasses != 3 {
		t.Fatal("feature/class dims wrong")
	}
	// Balanced classes.
	counts := make([]int, 3)
	for _, y := range g.Labels {
		counts[y]++
	}
	for _, c := range counts {
		if c < 60 || c > 73 {
			t.Fatalf("class counts unbalanced: %v", counts)
		}
	}
	// Binary features.
	for _, v := range g.Features.Data() {
		if v != 0 && v != 1 {
			t.Fatalf("feature value %v not binary", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Name: "t", N: 100, M: 400, Classes: 2, FeatureDim: 8, Seed: 11}
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("same seed produced different edges")
		}
	}
	if !tensor.ApproxEqual(g1.Features, g2.Features, 0) {
		t.Fatal("same seed produced different features")
	}
}

func TestGenerateHomophily(t *testing.T) {
	g, err := Generate(GenConfig{Name: "t", N: 400, M: 3000, Classes: 4, FeatureDim: 16,
		Homophily: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, e := range g.Edges {
		if g.Labels[e[0]] == g.Labels[e[1]] {
			same++
		}
	}
	frac := float64(same) / float64(len(g.Edges))
	if frac < 0.6 {
		t.Fatalf("homophily 0.9 yielded intra-class fraction %v", frac)
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	g, err := Generate(GenConfig{Name: "t", N: 500, M: 4000, Classes: 2, FeatureDim: 8,
		PowerLaw: 2.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < 3*int(g.AvgDegree()) {
		t.Fatalf("no heavy tail: max %d vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGenerateLabelNoise(t *testing.T) {
	base := GenConfig{Name: "t", N: 600, M: 2400, Classes: 3, FeatureDim: 12, Seed: 6}
	noisy := base
	noisy.LabelNoise = 0.3
	g1, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(noisy)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: topology identical, labels differ on ≈ noise fraction.
	diff := 0
	for i := range g1.Labels {
		if g1.Labels[i] != g2.Labels[i] {
			diff++
		}
	}
	frac := float64(diff) / float64(len(g1.Labels))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("label noise flipped %v, want ≈0.3", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{N: 2, M: 1, Classes: 2, FeatureDim: 4},                         // too few vertices
		{N: 10, M: 100, Classes: 2, FeatureDim: 4},                      // too many edges
		{N: 10, M: 5, Classes: 1, FeatureDim: 4},                        // one class
		{N: 10, M: 5, Classes: 4, FeatureDim: 2},                        // dim < classes
		{N: 10, M: 5, Classes: 2, FeatureDim: 4, PowerLaw: 0.5},         // bad exponent
		{N: 10, M: 5, Classes: 2, FeatureDim: 4, Homophily: 1.5},        // bad homophily
		{N: 10, M: 5, Classes: 2, FeatureDim: 4, LabelNoise: 1.0},       // bad noise
		{N: 10, M: 0, Classes: 2, FeatureDim: 4},                        // no edges
		{N: 10, M: -1, Classes: 2, FeatureDim: 4},                       // negative edges
		{N: -5, M: 5, Classes: 2, FeatureDim: 4},                        // negative vertices
		{N: 10, M: 5, Classes: 2, FeatureDim: 4, ActivePerClass: 0 - 1}, // handled: negative treated as given
	}
	for i, cfg := range bad[:10] {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, cfg)
		}
	}
}

func TestPresetStats(t *testing.T) {
	fb, err := FacebookLike(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fb.NumClasses != 4 {
		t.Fatalf("facebook classes = %d", fb.NumClasses)
	}
	if fb.AvgDegree() < 10 || fb.AvgDegree() > 20 {
		t.Fatalf("facebook avg degree %v, want ≈15", fb.AvgDegree())
	}
	lf, err := LastFMLike(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lf.NumClasses != 18 || lf.FeatureDim() != 128 {
		t.Fatalf("lastfm dims wrong: %d classes, %d features", lf.NumClasses, lf.FeatureDim())
	}
	if lf.AvgDegree() < 10 || lf.AvgDegree() > 19 {
		t.Fatalf("lastfm avg degree %v, want ≈14.6", lf.AvgDegree())
	}
}

func TestPresetScaleValidation(t *testing.T) {
	if _, err := FacebookLike(0, 1); err == nil {
		t.Fatal("scale 0 must error")
	}
	if _, err := LastFMLike(1.5, 1); err == nil {
		t.Fatal("scale >1 must error")
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g, err := Generate(GenConfig{Name: "roundtrip", N: 60, M: 150, Classes: 3, FeatureDim: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.N != g.N || back.NumEdges() != g.NumEdges() ||
		back.NumClasses != g.NumClasses {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range g.Edges {
		if g.Edges[i] != back.Edges[i] {
			t.Fatal("edges differ after round trip")
		}
	}
	for i := range g.Labels {
		if g.Labels[i] != back.Labels[i] {
			t.Fatal("labels differ after round trip")
		}
	}
	if !tensor.ApproxEqual(g.Features, back.Features, 0) {
		t.Fatal("features differ after round trip")
	}
}

func TestGraphReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})); err == nil {
		t.Fatal("expected error on garbage input")
	}
}

func TestQuickGeneratedGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g, err := Generate(GenConfig{Name: "q", N: 50, M: 120, Classes: 2, FeatureDim: 6, Seed: seed})
		if err != nil {
			return false
		}
		// Adjacency consistent with edges; no self loops or duplicates.
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			if e[0] == e[1] || seen[e] {
				return false
			}
			seen[e] = true
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		total := 0
		for v := 0; v < g.N; v++ {
			total += g.Degree(v)
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampler(t *testing.T) {
	s := newWeightedSampler([]float64{0, 0, 10, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := s.sample(rng); got != 2 {
			t.Fatalf("sampler picked %d with all weight on 2", got)
		}
	}
	// All-zero weights degrade to uniform without panicking.
	z := newWeightedSampler([]float64{0, 0})
	if got := z.sample(rng); got != 0 && got != 1 {
		t.Fatalf("zero-weight sample = %d", got)
	}
}
