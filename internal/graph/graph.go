// Package graph provides the graph substrate for the federated learning
// system: an undirected attributed graph type, synthetic social-graph
// generators with power-law degree heterogeneity, dataset presets standing
// in for the paper's Facebook page-page and LastFM Asia crawls, and
// train/validation/test splitting for both node classification and link
// prediction.
package graph

import (
	"fmt"
	"sort"

	"lumos/internal/tensor"
)

// Graph is an undirected simple graph with node features and labels.
// Vertices are indexed 0..N-1; in the federated system vertex v is device v.
type Graph struct {
	Name string
	N    int
	// Adj holds sorted neighbor lists.
	Adj [][]int
	// Edges holds each undirected edge once, canonicalized u < v.
	Edges [][2]int
	// Features is the N×D feature matrix with entries in [FeatLo, FeatHi].
	Features *tensor.Matrix
	// Labels holds the class of each vertex, in [0, NumClasses).
	Labels     []int
	NumClasses int
	// FeatLo and FeatHi are the value bounds [a, b] assumed by the LDP
	// one-bit encoder.
	FeatLo, FeatHi float64
}

// NewFromEdges builds a Graph from an edge list, deduplicating and dropping
// self-loops. Features and labels may be nil for purely structural graphs.
func NewFromEdges(n int, edges [][2]int, features *tensor.Matrix, labels []int, numClasses int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one vertex, got %d", n)
	}
	if features != nil && features.Rows() != n {
		return nil, fmt.Errorf("graph: %d feature rows for %d vertices", features.Rows(), n)
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), n)
	}
	seen := make(map[[2]int]bool, len(edges))
	canon := make([][2]int, 0, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		k := [2]int{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		canon = append(canon, k)
	}
	g := &Graph{
		N:          n,
		Adj:        make([][]int, n),
		Edges:      canon,
		Features:   features,
		Labels:     labels,
		NumClasses: numClasses,
		FeatLo:     0,
		FeatHi:     1,
	}
	for _, e := range canon {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
	}
	for v := range g.Adj {
		sort.Ints(g.Adj[v])
	}
	return g, nil
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// MaxDegree returns the largest degree in the graph (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	mx := 0
	for v := 0; v < g.N; v++ {
		if d := len(g.Adj[v]); d > mx {
			mx = d
		}
	}
	return mx
}

// AvgDegree returns the mean degree 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return 2 * float64(len(g.Edges)) / float64(g.N)
}

// HasEdge reports whether {u,v} is an edge, by binary search on Adj[u].
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N || v < 0 || v >= g.N || u == v {
		return false
	}
	adj := g.Adj[u]
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// FeatureDim returns the feature dimensionality D (0 if featureless).
func (g *Graph) FeatureDim() int {
	if g.Features == nil {
		return 0
	}
	return g.Features.Cols()
}

// Degrees returns a fresh slice of all vertex degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for v := range d {
		d[v] = len(g.Adj[v])
	}
	return d
}

// Subgraph returns a new graph keeping only the given edges (same vertex
// set, features, labels). Used to build the training graph in edge splits.
func (g *Graph) Subgraph(edges [][2]int) (*Graph, error) {
	sg, err := NewFromEdges(g.N, edges, g.Features, g.Labels, g.NumClasses)
	if err != nil {
		return nil, err
	}
	sg.Name = g.Name + "/sub"
	sg.FeatLo, sg.FeatHi = g.FeatLo, g.FeatHi
	return sg, nil
}

// Stats summarizes structural properties for logging and dataset tables.
type Stats struct {
	N, M              int
	AvgDeg            float64
	MaxDeg            int
	FeatureDim        int
	Classes           int
	DegreeGini        float64
	Top1PctDegreeMass float64
}

// ComputeStats gathers summary statistics, including degree-concentration
// measures that quantify the degree heterogeneity the paper targets.
func (g *Graph) ComputeStats() Stats {
	degs := g.Degrees()
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	total := 0
	for _, d := range sorted {
		total += d
	}
	gini := 0.0
	if total > 0 {
		// Gini over the sorted degree sequence.
		cum := 0.0
		for i, d := range sorted {
			cum += float64(d) * (2*float64(i+1) - float64(len(sorted)) - 1)
		}
		gini = cum / (float64(len(sorted)) * float64(total))
	}
	topMass := 0.0
	if total > 0 {
		k := len(sorted) / 100
		if k < 1 {
			k = 1
		}
		topSum := 0
		for _, d := range sorted[len(sorted)-k:] {
			topSum += d
		}
		topMass = float64(topSum) / float64(total)
	}
	return Stats{
		N: g.N, M: len(g.Edges),
		AvgDeg:            g.AvgDegree(),
		MaxDeg:            g.MaxDegree(),
		FeatureDim:        g.FeatureDim(),
		Classes:           g.NumClasses,
		DegreeGini:        gini,
		Top1PctDegreeMass: topMass,
	}
}
