// Package tree implements Lumos's tree construction (paper §V-A): each
// device converts its (trimmed) ego network into a three-level tree whose
// leaves are real vertices and whose internal nodes are virtual. For every
// retained neighbor u of center v there is a leaf pair (copy-of-v, u) joined
// by a virtual parent; all parents hang off a single virtual root. The
// center vertex is replicated once per pair so the only un-noised feature in
// the device is used |N(v)| times during training.
//
// The package also builds the flat ego-network graph used by the
// "Lumos w.o. VN" ablation, which skips virtual nodes entirely.
package tree

import (
	"fmt"
	"sort"
)

// NodeKind distinguishes tree node roles.
type NodeKind uint8

const (
	// Root is the single virtual root node.
	Root NodeKind = iota
	// Parent is a virtual parent joining one leaf pair.
	Parent
	// CenterLeaf is a replica of the device's own vertex.
	CenterLeaf
	// NeighborLeaf is a retained neighbor's vertex.
	NeighborLeaf
)

// Tree is a constructed per-device tree. Nodes are locally indexed
// 0..NumNodes-1; Vertex maps each node to the global vertex it represents
// (-1 for virtual nodes).
type Tree struct {
	Center   int
	Retained []int // global ids of retained neighbors, sorted
	NumNodes int
	Edges    [][2]int // undirected local edges
	Kind     []NodeKind
	Vertex   []int // global vertex per node, -1 for virtual
}

// Build constructs the virtual-node tree for a device (the Lumos default).
// With wl = len(retained) > 0 the layout is: node 0 = root, then for pair k:
// parent 1+3k, center leaf 2+3k, neighbor leaf 3+3k. A device whose
// trimmed neighbor set is empty degenerates to a single center leaf so the
// vertex still embeds its own (un-noised) feature.
func Build(center int, retained []int) *Tree {
	r := append([]int(nil), retained...)
	sort.Ints(r)
	for _, u := range r {
		if u == center {
			panic(fmt.Sprintf("tree: vertex %d retained as its own neighbor", center))
		}
	}
	wl := len(r)
	if wl == 0 {
		return &Tree{
			Center:   center,
			Retained: r,
			NumNodes: 1,
			Kind:     []NodeKind{CenterLeaf},
			Vertex:   []int{center},
		}
	}
	t := &Tree{
		Center:   center,
		Retained: r,
		NumNodes: 1 + 3*wl,
		Kind:     make([]NodeKind, 1+3*wl),
		Vertex:   make([]int, 1+3*wl),
	}
	t.Kind[0] = Root
	t.Vertex[0] = -1
	for k, u := range r {
		parent, cLeaf, nLeaf := 1+3*k, 2+3*k, 3+3*k
		t.Kind[parent] = Parent
		t.Vertex[parent] = -1
		t.Kind[cLeaf] = CenterLeaf
		t.Vertex[cLeaf] = center
		t.Kind[nLeaf] = NeighborLeaf
		t.Vertex[nLeaf] = u
		t.Edges = append(t.Edges,
			[2]int{parent, cLeaf},
			[2]int{parent, nLeaf},
			[2]int{0, parent},
		)
	}
	return t
}

// BuildEgo constructs the flat ego-network graph used by the w.o.-VN
// ablation: the center node connected directly to each retained neighbor,
// no virtual nodes. Node 0 is the center.
func BuildEgo(center int, retained []int) *Tree {
	r := append([]int(nil), retained...)
	sort.Ints(r)
	t := &Tree{
		Center:   center,
		Retained: r,
		NumNodes: 1 + len(r),
		Kind:     make([]NodeKind, 1+len(r)),
		Vertex:   make([]int, 1+len(r)),
	}
	t.Kind[0] = CenterLeaf
	t.Vertex[0] = center
	for k, u := range r {
		t.Kind[1+k] = NeighborLeaf
		t.Vertex[1+k] = u
		t.Edges = append(t.Edges, [2]int{0, 1 + k})
	}
	return t
}

// NeighborLeafAt returns the local node index of the leaf representing
// Retained[k]: 3+3k in a virtual-node tree (Build), 1+k in a flat ego graph
// (BuildEgo).
func (t *Tree) NeighborLeafAt(k int) int {
	if t.Kind[0] == Root {
		return 3 + 3*k
	}
	return 1 + k
}

// Validate checks structural invariants; tests run it over built trees.
func (t *Tree) Validate() error {
	if len(t.Kind) != t.NumNodes || len(t.Vertex) != t.NumNodes {
		return fmt.Errorf("tree: metadata length mismatch (nodes=%d kind=%d vertex=%d)",
			t.NumNodes, len(t.Kind), len(t.Vertex))
	}
	for _, e := range t.Edges {
		if e[0] < 0 || e[0] >= t.NumNodes || e[1] < 0 || e[1] >= t.NumNodes {
			return fmt.Errorf("tree: edge %v out of range", e)
		}
	}
	if len(t.Edges) != t.NumNodes-1 && t.NumNodes > 0 {
		// A tree on n nodes has n−1 edges (flat ego graphs are stars, also
		// trees).
		return fmt.Errorf("tree: %d edges for %d nodes", len(t.Edges), t.NumNodes)
	}
	for i, k := range t.Kind {
		switch k {
		case Root, Parent:
			if t.Vertex[i] != -1 {
				return fmt.Errorf("tree: virtual node %d maps to vertex %d", i, t.Vertex[i])
			}
		case CenterLeaf:
			if t.Vertex[i] != t.Center {
				return fmt.Errorf("tree: center leaf %d maps to %d, center is %d", i, t.Vertex[i], t.Center)
			}
		case NeighborLeaf:
			if t.Vertex[i] == t.Center || t.Vertex[i] < 0 {
				return fmt.Errorf("tree: neighbor leaf %d maps to %d", i, t.Vertex[i])
			}
		}
	}
	return nil
}
