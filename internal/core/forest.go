package core

import (
	"fmt"
	"math"

	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/ldp"
	"lumos/internal/tensor"
	"lumos/internal/tree"
)

// Forest is the block-diagonal union of all device trees, plus the POOL
// indexing that averages the embeddings of all leaves representing the same
// global vertex (paper Eq. 31). The training engine slices it into
// contiguous per-device shards, each with its own message-passing graph
// (see engine.go); the forest itself only carries the flattened layout.
type Forest struct {
	// X holds the initial node embeddings: the device's own (un-noised)
	// feature on its center leaves, LDP-recovered features on neighbor
	// leaves, zeros on virtual nodes (paper Eq. 25).
	X *tensor.Matrix
	// LeafRows[i] is the forest row of the i-th leaf; LeafVertex[i] its
	// global vertex; PoolCoef[i] = 1/#leaves(vertex) so that the
	// coefficient-weighted per-vertex sum of leaf rows is average pooling.
	LeafRows   []int
	LeafVertex []int
	PoolCoef   []float64
	// Offsets[v] is the forest row where device v's tree starts.
	Offsets  []int
	NumNodes int
}

// buildTrees constructs per-device trees from the balanced retention sets,
// honoring the virtual-node ablation switch.
func buildTrees(g *graph.Graph, retained [][]int, disableVirtualNodes bool) []*tree.Tree {
	trees := make([]*tree.Tree, g.N)
	for v := 0; v < g.N; v++ {
		if disableVirtualNodes {
			trees[v] = tree.BuildEgo(v, retained[v])
		} else {
			trees[v] = tree.Build(v, retained[v])
		}
	}
	return trees
}

// buildForest flattens the trees into one graph and runs the LDP embedding
// initialization of §VI-A: each device encodes its feature with the one-bit
// mechanism, partitions the encoded elements into one bin per recipient
// device, and each recipient recovers its bin into an unbiased estimate
// (paper Eq. 26–27). Recipients of device u's feature are exactly the
// devices whose trees contain a leaf for u — the devices w with u ∈ N_w.
// (The paper states the bins are indexed by wl(u); after asymmetric MCMC
// moves the set that actually needs the feature is {w : u ∈ N_w}, which
// coincides with N_u under symmetric retention. Using the true recipient
// set preserves Theorem 4: each recipient sees d/|bins| elements encoded at
// ε·|bins|/d each.)
//
// Traffic: one MsgFeature per (sender, recipient) pair; encoded elements
// are 2 bits each ({0, ½, 1}), so a partial feature costs ⌈d/4⌉ bytes plus
// a small header.
//
// When rowNormalize is set (the default), every leaf's initial embedding is
// L2-normalized by the device holding it. This is a purely local,
// parameter-free post-processing step (differential privacy is closed
// under post-processing) that equalizes the magnitudes of un-noised center
// features and LDP-recovered neighbor features — without it, the unbiased
// recovery's (e^ε'+1)/(e^ε'−1) scale factor saturates the sigmoid in the
// link-prediction loss and slows supervised optimization.
func buildForest(g *graph.Graph, trees []*tree.Tree, devices []*fed.Device,
	epsilon float64, rowNormalize bool, net *fed.Network) (*Forest, error) {

	d := g.FeatureDim()
	if d == 0 {
		return nil, fmt.Errorf("core: graph %q has no features", g.Name)
	}

	// Reverse retention: recipients[u] = devices holding a leaf for u.
	recipients := make([][]int, g.N)
	for v, t := range trees {
		for _, u := range t.Retained {
			recipients[u] = append(recipients[u], v)
		}
	}

	// LDP encode/exchange. recovered[w][u] is what device w holds for
	// neighbor u after recovery.
	recovered := make([]map[int][]float64, g.N)
	for v := range recovered {
		recovered[v] = make(map[int][]float64)
	}
	featureMsgBytes := (d+3)/4 + 16
	for u := 0; u < g.N; u++ {
		if len(recipients[u]) == 0 {
			continue
		}
		enc := ldp.FeatureEncoder{
			Epsilon:  epsilon,
			A:        g.FeatLo,
			B:        g.FeatHi,
			Workload: len(recipients[u]),
			Dim:      d,
		}
		parts, err := enc.Encode(g.Features.Row(u), devices[u].Rng)
		if err != nil {
			return nil, fmt.Errorf("core: encoding device %d: %w", u, err)
		}
		for k, w := range recipients[u] {
			rec, err := enc.Recover(parts[k])
			if err != nil {
				return nil, fmt.Errorf("core: recovering device %d's feature at %d: %w", u, w, err)
			}
			recovered[w][u] = rec
			net.Send(u, w, fed.MsgFeature, featureMsgBytes)
		}
	}

	// Flatten trees.
	f := &Forest{Offsets: make([]int, g.N)}
	total := 0
	for v, t := range trees {
		f.Offsets[v] = total
		total += t.NumNodes
	}
	f.NumNodes = total
	f.X = tensor.New(total, d)
	leafCount := make([]int, g.N)
	for v, t := range trees {
		off := f.Offsets[v]
		for i := 0; i < t.NumNodes; i++ {
			gv := t.Vertex[i]
			if gv < 0 {
				continue // virtual node: zero embedding
			}
			row := off + i
			f.LeafRows = append(f.LeafRows, row)
			f.LeafVertex = append(f.LeafVertex, gv)
			leafCount[gv]++
			switch t.Kind[i] {
			case tree.CenterLeaf:
				f.X.SetRow(row, g.Features.Row(v)) // own feature, un-noised
			case tree.NeighborLeaf:
				rec, ok := recovered[v][gv]
				if !ok {
					return nil, fmt.Errorf("core: device %d missing feature for neighbor %d", v, gv)
				}
				f.X.SetRow(row, rec)
			}
		}
	}
	if rowNormalize {
		for _, row := range f.LeafRows {
			normalizeRow(f.X.Row(row))
		}
	}
	f.PoolCoef = make([]float64, len(f.LeafRows))
	for i, gv := range f.LeafVertex {
		if leafCount[gv] == 0 {
			return nil, fmt.Errorf("core: vertex %d has no leaves", gv)
		}
		f.PoolCoef[i] = 1 / float64(leafCount[gv])
	}
	// Every vertex must be represented by at least one leaf (its own
	// degenerate tree guarantees this even at workload 0).
	for v := 0; v < g.N; v++ {
		if leafCount[v] == 0 {
			return nil, fmt.Errorf("core: vertex %d unrepresented in forest", v)
		}
	}
	return f, nil
}

// normalizeRow scales a feature row to unit L2 norm (no-op for zero rows).
func normalizeRow(row []float64) {
	s := 0.0
	for _, v := range row {
		s += v * v
	}
	if s <= 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range row {
		row[i] *= inv
	}
}
