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
// The trees are flattened first, so each recipient's estimate of u is
// recovered straight into the forest row of its leaf for u (found from u's
// position in the recipient's sorted Retained): ldp.FeatureEncoder's
// EncodeRecover makes the draws Encode would make, in the same order, and
// no encoded or recovered vector is kept anywhere else.
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

	// Flatten trees.
	f := &Forest{Offsets: make([]int, g.N)}
	total := 0
	for v, t := range trees {
		f.Offsets[v] = total
		total += t.NumNodes
	}
	f.NumNodes = total
	f.X = tensor.New(total, d)

	// Reverse retention: the recipients of u's feature are
	// recipients[start[u]:start[u+1]], in ascending device order, each with
	// the forest row of its leaf for u.
	type recipient struct{ dev, row int }
	start := make([]int, g.N+1)
	for _, t := range trees {
		for _, u := range t.Retained {
			start[u+1]++
		}
	}
	for u := 0; u < g.N; u++ {
		start[u+1] += start[u]
	}
	recipients := make([]recipient, start[g.N])
	next := append([]int(nil), start[:g.N]...)
	for v, t := range trees {
		for k, u := range t.Retained {
			i := t.NeighborLeafAt(k)
			if t.Kind[i] != tree.NeighborLeaf || t.Vertex[i] != u {
				return nil, fmt.Errorf("core: device %d has no leaf for neighbor %d", v, u)
			}
			recipients[next[u]] = recipient{dev: v, row: f.Offsets[v] + i}
			next[u]++
		}
	}

	// LDP encode/exchange, recovered into the recipients' leaf rows.
	featureMsgBytes := (d+3)/4 + 16
	var rows [][]float64
	for u := 0; u < g.N; u++ {
		rs := recipients[start[u]:start[u+1]]
		if len(rs) == 0 {
			continue
		}
		enc := ldp.FeatureEncoder{
			Epsilon:  epsilon,
			A:        g.FeatLo,
			B:        g.FeatHi,
			Workload: len(rs),
			Dim:      d,
		}
		rows = rows[:0]
		for _, r := range rs {
			rows = append(rows, f.X.Row(r.row))
		}
		if err := enc.EncodeRecover(g.Features.Row(u), rows, devices[u].Rng); err != nil {
			return nil, fmt.Errorf("core: encoding device %d: %w", u, err)
		}
		for _, r := range rs {
			net.Send(u, r.dev, fed.MsgFeature, featureMsgBytes)
		}
	}

	leafCount := make([]int, g.N)
	neighborLeaves := 0
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
				neighborLeaves++
			}
		}
	}
	// Every neighbor leaf received exactly one recovered feature: the
	// exchange wrote one row per retained neighbor, each a neighbor leaf.
	if neighborLeaves != len(recipients) {
		return nil, fmt.Errorf("core: %d neighbor leaves, %d received features", neighborLeaves, len(recipients))
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
