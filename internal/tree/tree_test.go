package tree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuildStructure(t *testing.T) {
	tr := Build(7, []int{3, 9, 1})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != 1+3*3 {
		t.Fatalf("nodes = %d, want 10", tr.NumNodes)
	}
	if len(tr.Edges) != tr.NumNodes-1 {
		t.Fatalf("edges = %d", len(tr.Edges))
	}
	if len(tr.Retained) != 3 {
		t.Fatalf("workload = %d", len(tr.Retained))
	}
	// Retained must be sorted.
	if tr.Retained[0] != 1 || tr.Retained[1] != 3 || tr.Retained[2] != 9 {
		t.Fatalf("retained = %v", tr.Retained)
	}
	// One center leaf per pair.
	centers, neighbors, parents, roots := 0, 0, 0, 0
	for _, k := range tr.Kind {
		switch k {
		case CenterLeaf:
			centers++
		case NeighborLeaf:
			neighbors++
		case Parent:
			parents++
		case Root:
			roots++
		}
	}
	if centers != 3 || neighbors != 3 || parents != 3 || roots != 1 {
		t.Fatalf("node mix: %d/%d/%d/%d", centers, neighbors, parents, roots)
	}
}

func TestBuildParentChildTopology(t *testing.T) {
	tr := Build(0, []int{5})
	// Layout: root=0, parent=1, centerLeaf=2, neighborLeaf=3.
	wantEdges := map[[2]int]bool{{1, 2}: true, {1, 3}: true, {0, 1}: true}
	for _, e := range tr.Edges {
		if !wantEdges[e] {
			t.Fatalf("unexpected edge %v", e)
		}
		delete(wantEdges, e)
	}
	if len(wantEdges) != 0 {
		t.Fatalf("missing edges %v", wantEdges)
	}
	if tr.Vertex[2] != 0 || tr.Vertex[3] != 5 {
		t.Fatalf("vertex mapping %v", tr.Vertex)
	}
}

func TestBuildEmptyRetained(t *testing.T) {
	tr := Build(4, nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != 1 || tr.Kind[0] != CenterLeaf || tr.Vertex[0] != 4 {
		t.Fatalf("degenerate tree = %+v", tr)
	}
	if len(leaves(tr)) != 1 {
		t.Fatal("degenerate tree must keep one leaf")
	}
}

func TestBuildPanicsOnSelfNeighbor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(3, []int{3})
}

func TestBuildEgoStructure(t *testing.T) {
	tr := BuildEgo(2, []int{7, 4})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != 3 || len(tr.Edges) != 2 {
		t.Fatalf("ego graph: %d nodes %d edges", tr.NumNodes, len(tr.Edges))
	}
	if tr.Kind[0] != CenterLeaf {
		t.Fatal("node 0 must be the center")
	}
	// Star topology: all edges incident to node 0.
	for _, e := range tr.Edges {
		if e[0] != 0 {
			t.Fatalf("edge %v not centered", e)
		}
	}
}

func TestLeavesAndNeighborLeafIndex(t *testing.T) {
	tr := Build(1, []int{2, 8})
	ls := leaves(tr)
	if len(ls) != 4 { // 2 pairs × 2 leaves
		t.Fatalf("leaves = %v", ls)
	}
	if idx := tr.NeighborLeafAt(1); tr.Kind[idx] != NeighborLeaf || tr.Vertex[idx] != 8 {
		t.Fatalf("NeighborLeafAt(1) = %d, want the leaf of 8", idx)
	}
	// The center's leaves are never neighbor leaves.
	for _, i := range ls {
		if tr.Vertex[i] == 1 && tr.Kind[i] != CenterLeaf {
			t.Fatalf("center mapped to a %v node", tr.Kind[i])
		}
	}
}

// NeighborLeafAt(k) is the leaf of Retained[k] in both layouts, and the
// only neighbor leaf of its vertex.
func TestNeighborLeafAtBothLayouts(t *testing.T) {
	retained := []int{9, 3, 14, 5, 11}
	for name, tr := range map[string]*Tree{"Build": Build(7, retained), "BuildEgo": BuildEgo(7, retained)} {
		for k, u := range tr.Retained {
			if i := tr.NeighborLeafAt(k); tr.Kind[i] != NeighborLeaf || tr.Vertex[i] != u {
				t.Fatalf("%s: NeighborLeafAt(%d) = %d (kind %d, vertex %d), want the leaf of %d",
					name, k, i, tr.Kind[i], tr.Vertex[i], u)
			}
		}
		for i, v := range tr.Vertex {
			if tr.Kind[i] != NeighborLeaf {
				continue
			}
			if k := slices.Index(tr.Retained, v); k < 0 || tr.NeighborLeafAt(k) != i {
				t.Fatalf("%s: neighbor leaf %d (vertex %d) is not NeighborLeafAt of its vertex", name, i, v)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Build(0, []int{1, 2})
	tr.Vertex[0] = 5 // root must map to -1
	if err := tr.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	tr2 := Build(0, []int{1})
	tr2.Edges = append(tr2.Edges, [2]int{0, 99})
	if err := tr2.Validate(); err == nil {
		t.Fatal("expected out-of-range edge error")
	}
	tr3 := Build(0, []int{1})
	tr3.Edges = tr3.Edges[:1]
	if err := tr3.Validate(); err == nil {
		t.Fatal("expected edge-count error")
	}
}

func TestQuickBuildInvariants(t *testing.T) {
	f := func(center uint8, raw []uint8) bool {
		c := int(center)
		seen := map[int]bool{}
		var retained []int
		for _, r := range raw {
			v := int(r) + 300 // avoid collision with center
			if !seen[v] {
				seen[v] = true
				retained = append(retained, v)
			}
		}
		tr := Build(c, retained)
		if tr.Validate() != nil {
			return false
		}
		if len(tr.Retained) != len(retained) {
			return false
		}
		// Every retained neighbor has exactly one leaf; the center has one
		// copy per pair.
		counts := map[int]int{}
		for i, v := range tr.Vertex {
			if v >= 0 && tr.Kind[i] == NeighborLeaf {
				counts[v]++
			}
		}
		for _, v := range retained {
			if counts[v] != 1 {
				return false
			}
		}
		eg := BuildEgo(c, retained)
		return eg.Validate() == nil && eg.NumNodes == len(retained)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// leaves returns the local indices of the nodes that represent real
// vertices.
func leaves(t *Tree) []int {
	var out []int
	for i, v := range t.Vertex {
		if v >= 0 {
			out = append(out, i)
		}
	}
	return out
}
