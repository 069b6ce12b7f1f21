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
	// XView is X again, as what the LDP exchange actually transmitted: a
	// row constant plus a sparse residual. A neighbor leaf's row is its
	// sender's "not transmitted" estimate everywhere but the ~d/wl columns
	// it was sent; a center leaf's row is the device's sparse raw feature
	// (constant 0), one residual span shared by all of the device's center
	// leaves; a virtual row is empty. XView.Dense() equals X bit for bit.
	// The engine's first layer multiplies through it (autodiff
	// Tape.ConstSparse), which equals the dense product up to summation
	// order.
	XView *tensor.ConstSparse
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
// XView is recorded while the rows are written, not by a scan of X: a
// recipient's residual is the columns EncodeRecover reports it was sent,
// and a device's center feature is normalized once and shared by its
// center leaves. Every value in XView is read from the row it describes
// after normalization, so XView.Dense() equals X bit for bit.
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

	// The first layer's view of X (Forest.XView), recorded while the rows
	// are written: one backing array holds every (sender, recipient) pair's
	// transmitted columns, which number d per sender, then every device's
	// center residual (its feature's nonzero columns, shared by its center
	// leaves).
	centerEntries, senders := 0, 0
	for v := 0; v < g.N; v++ {
		for _, x := range g.Features.Row(v) {
			if math.Float64bits(x) != 0 {
				centerEntries++
			}
		}
		if start[v+1] > start[v] {
			senders++
		}
	}
	view := tensor.NewConstSparse(total, d, senders*d+centerEntries)
	col, val := view.Residual()
	fill := 0

	// LDP encode/exchange, recovered into the recipients' leaf rows; each
	// row is normalized and entered into the view as it is written.
	featureMsgBytes := (d+3)/4 + 16
	var rows [][]float64
	var sent [][]int32
	var cursor []int
	owner := make([]int, d) // the recipient each of a sender's columns went to
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
		rows, sent = rows[:0], sent[:0]
		lo := fill
		for k, r := range rs {
			n := enc.BinLen(k)
			rows = append(rows, f.X.Row(r.row))
			sent = append(sent, col[fill:fill+n])
			fill += n
		}
		if err := enc.EncodeRecover(g.Features.Row(u), rows, sent, devices[u].Rng); err != nil {
			return nil, fmt.Errorf("core: encoding device %d: %w", u, err)
		}
		// The bins partition the d columns: rewrite each recipient's list in
		// ascending column order with one pass over the columns, the order
		// the dense kernel sums a row in, so a row whose constant is 0
		// multiplies bit for bit as its row of X does.
		cursor = cursor[:0]
		for k, cols := range sent {
			for _, j := range cols {
				owner[j] = k
			}
			cursor = append(cursor, 0)
		}
		for j, k := range owner {
			sent[k][cursor[k]] = int32(j)
			cursor[k]++
		}
		for k, r := range rs {
			row, cols := rows[k], sent[k]
			if rowNormalize {
				normalizeRow(row)
			}
			view.SetRow(r.row, residualRow(row, cols, val[lo:lo+len(cols)]), lo, lo+len(cols))
			lo += len(cols)
			net.Send(u, r.dev, fed.MsgFeature, featureMsgBytes)
		}
	}

	leafCount := make([]int, g.N)
	neighborLeaves := 0
	center := make([]float64, d)
	for v, t := range trees {
		off := f.Offsets[v]
		cLo, cHi := -1, -1
		for i := 0; i < t.NumNodes; i++ {
			gv := t.Vertex[i]
			if gv < 0 {
				continue // virtual node: zero embedding, an empty view row
			}
			row := off + i
			f.LeafRows = append(f.LeafRows, row)
			f.LeafVertex = append(f.LeafVertex, gv)
			leafCount[gv]++
			switch t.Kind[i] {
			case tree.CenterLeaf:
				// The own feature, un-noised: normalized once per device
				// and copied to each of its center leaves, which share one
				// residual span.
				if cLo < 0 {
					cLo = fill
					for j, x := range g.Features.Row(v) {
						center[j] = x
						if math.Float64bits(x) != 0 {
							col[fill] = int32(j)
							fill++
						}
					}
					cHi = fill
					if rowNormalize {
						normalizeRow(center)
					}
					for e := cLo; e < cHi; e++ {
						val[e] = center[col[e]]
					}
				}
				f.X.SetRow(row, center)
				view.SetRow(row, 0, cLo, cHi)
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
	f.XView = view
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

// residualRow enters one recovered neighbor row into the view: cols are its
// transmitted columns, ascending, whose values it copies into val, and every
// other column holds the row's constant c (0 when every column was sent).
func residualRow(row []float64, cols []int32, val []float64) (c float64) {
	j := 0
	for _, k := range cols {
		if int(k) != j {
			break
		}
		j++
	}
	if j < len(row) {
		c = row[j]
	}
	for e, k := range cols {
		val[e] = row[k]
	}
	return c
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
