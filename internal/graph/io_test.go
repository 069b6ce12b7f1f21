package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lumos/internal/tensor"
)

// allocBytes returns what f allocated, in bytes.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllocBound is the most Read may allocate for an n-byte input that
// declares vertices vertices: its read buffer and bookkeeping, a small
// multiple of the bytes it actually read (containers grow as their bytes
// arrive), and NewFromEdges' adjacency headers.
func readAllocBound(n int, vertices uint32) uint64 {
	return 64<<10 + 64*uint64(n) + 64*uint64(vertices)
}

// csvAllocBound is the most a CSV reader may allocate for an n-byte input,
// beside the matrix ReadSparseFeatures returns: its scanner buffer grows
// with the longest line, and every line's fields, edges, entries and class
// names are a small multiple of the line's own bytes.
func csvAllocBound(n int) uint64 { return 64<<10 + 128*uint64(n) }

// graphHeader is the fixed-size start of a binary graph file: magic, name
// length, the name, vertex, edge and class counts, and the feature bounds.
func graphHeader(name string, n, m, classes uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, graphMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	for _, c := range []uint32{n, m, classes} {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
}

// hugeHeaders are short inputs whose counts once sized Read's containers
// before their bytes arrived: an 8-byte input claiming a 1 GiB name
// (1.07 GB allocated), a 36-byte header claiming 50M edges (800 MB), and a
// 40-byte one claiming 200M labels (1.6 GB). The last two are also at the
// largest vertex count Read accepts, with the edge and label loops left to
// grow.
func hugeHeaders() map[string][]byte {
	labels := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32(graphHeader("", n, 0, 2), 1)
	}
	return map[string][]byte{
		"name-1GiB":        binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, graphMagic), 1<<30),
		"edges-50M":        graphHeader("", 10, 50_000_000, 2),
		"labels-200M":      labels(200_000_000),
		"edges-max-counts": graphHeader("", MaxVertices, math.MaxUint32, math.MaxUint32),
		"labels-max-n":     labels(MaxVertices),
	}
}

// A short input with huge counts fails on EOF, or on a limit, having
// allocated little more than its read buffer.
func TestReadHugeHeadersAllocateLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for name, data := range hugeHeaders() {
		var err error
		worst := uint64(0)
		for i := 0; i < 3; i++ {
			worst = max(worst, allocBytes(func() { _, err = Read(bytes.NewReader(data)) }))
		}
		if err == nil {
			t.Fatalf("%s: %d-byte input read without error", name, len(data))
		}
		if worst > 64<<10 {
			t.Errorf("%s: %d-byte input allocated %d B before failing (%v), want ≤ 64 KiB", name, len(data), worst, err)
		}
	}
}

func TestReadRejectsMalformedFields(t *testing.T) {
	bad := map[string][]byte{
		"too-many-vertices": append(graphHeader("", MaxVertices+1, 0, 2), 0, 0, 0, 0, 0, 0, 0, 0),
		"label-flag-2":      binary.LittleEndian.AppendUint32(graphHeader("", 2, 0, 2), 2),
		"label-out-of-range": binary.LittleEndian.AppendUint32(
			binary.LittleEndian.AppendUint32(graphHeader("", 1, 0, 2), 1), 2),
		"trailing-byte": append(binary.LittleEndian.AppendUint64(graphHeader("", 1, 0, 2), 0), 7),
	}
	bounds := graphHeader("", 1, 0, 2)
	binary.LittleEndian.PutUint64(bounds[len(bounds)-8:], math.Float64bits(0)) // hi = lo
	bad["empty-feature-interval"] = binary.LittleEndian.AppendUint64(bounds, 0)
	for name, data := range bad {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
	if _, err := Read(bytes.NewReader(binary.LittleEndian.AppendUint64(graphHeader("ok", 1, 0, 2), 0))); err != nil {
		t.Fatalf("a one-vertex graph with no labels or features: %v", err)
	}
}

// checkValidGraph fails unless g keeps Graph's invariants within the
// readers' limits.
func checkValidGraph(t *testing.T, g *Graph) {
	t.Helper()
	if g.N < 1 || g.N > MaxVertices || len(g.Adj) != g.N {
		t.Fatalf("graph has N=%d and %d adjacency lists", g.N, len(g.Adj))
	}
	for i, e := range g.Edges {
		if e[0] < 0 || e[0] >= e[1] || e[1] >= g.N || (i > 0 && slices.Contains(g.Edges[:i], e)) {
			t.Fatalf("edge %d %v is not a canonical, unique edge of %d vertices", i, e, g.N)
		}
	}
	if g.Labels != nil {
		if len(g.Labels) != g.N {
			t.Fatalf("%d labels for %d vertices", len(g.Labels), g.N)
		}
		for v, y := range g.Labels {
			if y < 0 || y >= g.NumClasses {
				t.Fatalf("vertex %d label %d outside [0,%d)", v, y, g.NumClasses)
			}
		}
	}
	if g.Features != nil && g.Features.Rows() != g.N {
		t.Fatalf("%d feature rows for %d vertices", g.Features.Rows(), g.N)
	}
}

// FuzzRead: any input is an error or a valid graph that writes back to
// bytes Read turns into the same graph — never a panic, and never an
// allocation past readAllocBound. Seeds: a Write output, every truncation of
// it, and the huge headers.
func FuzzRead(f *testing.F) {
	g, err := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {3, 0}, {2, 1}}, nil, []int{0, 1, 1, 0}, 2)
	if err != nil {
		f.Fatal(err)
	}
	g.Name = "fuzz"
	g.Features = tensor.FromRows([][]float64{{1, 0}, {0, 0.5}, {0, 0}, {1, 1}})
	var good bytes.Buffer
	if err := g.Write(&good); err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= good.Len(); n++ {
		f.Add(good.Bytes()[:n])
	}
	for _, data := range hugeHeaders() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var declared uint32
		if len(data) >= 12 {
			if nameLen := binary.LittleEndian.Uint32(data[4:8]); nameLen <= MaxNameLen && int(12+nameLen) <= len(data) {
				declared = binary.LittleEndian.Uint32(data[8+nameLen:])
			}
		}
		var g *Graph
		var err error
		n := allocBytes(func() { g, err = Read(bytes.NewReader(data)) })
		if !testing.Short() && n > readAllocBound(len(data), min(declared, MaxVertices)) {
			t.Fatalf("%d-byte input allocated %d B, bound %d (err %v)", len(data), n, readAllocBound(len(data), min(declared, MaxVertices)), err)
		}
		if err != nil {
			return
		}
		checkValidGraph(t, g)
		var again bytes.Buffer
		if err := g.Write(&again); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("a graph Read accepted does not read back: %v", err)
		}
		var twice bytes.Buffer
		if err := back.Write(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), twice.Bytes()) {
			t.Fatal("a graph Read accepted changes on a write/read round trip")
		}
	})
}

// The CSV readers bound ids and dimensions before sizing anything: a
// 12-byte feature line naming dimension 10^8 once allocated an 8 GB matrix
// for 10 vertices, and a 12-byte edge list declared 3·10^8 vertices.
func TestCSVReadersRejectHugeIDs(t *testing.T) {
	if _, err := ReadSparseFeatures(strings.NewReader("0,100000000\n"), 10, 0); err == nil {
		t.Fatal("feature dimension 10^8 accepted")
	}
	if _, err := ReadSparseFeatures(strings.NewReader("0,0\n"), 10, MaxFeatureDim+1); err == nil {
		t.Fatal("minD above MaxFeatureDim accepted")
	}
	if _, err := ReadSparseFeatures(strings.NewReader("0,60000\n"), MaxVertices, 0); err == nil {
		t.Fatal("an n·d above MaxFeatureEntries accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("0,300000000\n"), 0); err == nil {
		t.Fatal("vertex id 3·10^8 accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("0,1\n"), MaxVertices+1); err == nil {
		t.Fatal("minN above MaxVertices accepted")
	}
	if _, _, err := ReadLabels(strings.NewReader("0,a\n1,b\n"), MaxVertices+1); err == nil {
		t.Fatal("n above MaxVertices accepted")
	}
	if testing.Short() {
		return
	}
	for _, c := range []struct {
		name string
		read func()
	}{
		{"features", func() { ReadSparseFeatures(strings.NewReader("0,100000000\n"), 10, 0) }},
		{"edges", func() { ReadEdgeList(strings.NewReader("0,300000000\n"), 0) }},
	} {
		if n := allocBytes(c.read); n > csvAllocBound(12) {
			t.Errorf("%s: a 12-byte input allocated %d B, want ≤ %d", c.name, n, csvAllocBound(12))
		}
	}
}

// csvSeeds is the CSV fuzz targets' shared seed corpus: well-formed files
// of each reader's kind, headers, comments, separators, and the huge ids.
var csvSeeds = []string{
	"id_1,id_2\n0,1\n1,2\n# comment\n\n2 3\n3\t0\n",
	"id,target\n0,a\n1,b\n2,a\n",
	"node_id,feature_id\n0,3\n1,0\n1,5\n2,2\n",
	"0,100000000\n", "0,300000000\n", "-1,2\n", "0\n", "x,y\n1,z\n",
	"0,1,2,3,4,5\n", strings.Repeat(",", 64) + "\n",
}

// FuzzReadEdgeList: an error or an edge list over [0, n) with n ≤
// MaxVertices, within csvAllocBound.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		var edges [][2]int
		var err error
		a := allocBytes(func() { n, edges, err = ReadEdgeList(bytes.NewReader(data), 0) })
		if !testing.Short() && a > csvAllocBound(len(data)) {
			t.Fatalf("%d-byte input allocated %d B, bound %d (err %v)", len(data), a, csvAllocBound(len(data)), err)
		}
		if err != nil {
			return
		}
		if n < 1 || n > MaxVertices {
			t.Fatalf("n = %d", n)
		}
		for _, e := range edges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				t.Fatalf("edge %v outside [0,%d)", e, n)
			}
		}
	})
}

// FuzzReadLabels: an error or n labels in [0, classes) with ≥ 2 classes,
// within csvAllocBound.
func FuzzReadLabels(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 10
		var labels []int
		var classes int
		var err error
		a := allocBytes(func() { labels, classes, err = ReadLabels(bytes.NewReader(data), n) })
		if !testing.Short() && a > csvAllocBound(len(data)) {
			t.Fatalf("%d-byte input allocated %d B, bound %d (err %v)", len(data), a, csvAllocBound(len(data)), err)
		}
		if err != nil {
			return
		}
		if len(labels) != n || classes < 2 {
			t.Fatalf("%d labels, %d classes", len(labels), classes)
		}
		for v, y := range labels {
			if y < 0 || y >= classes {
				t.Fatalf("vertex %d label %d outside [0,%d)", v, y, classes)
			}
		}
	})
}

// FuzzReadSparseFeatures: an error or a binary n×d matrix with d ≤
// MaxFeatureDim, within csvAllocBound plus the matrix itself.
func FuzzReadSparseFeatures(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 10
		var feats *tensor.Matrix
		var err error
		a := allocBytes(func() { feats, err = ReadSparseFeatures(bytes.NewReader(data), n, 0) })
		bound := csvAllocBound(len(data))
		if feats != nil {
			bound += 64 + 8*uint64(feats.Rows()*feats.Cols())
		}
		if !testing.Short() && a > bound {
			t.Fatalf("%d-byte input allocated %d B, bound %d (err %v)", len(data), a, bound, err)
		}
		if err != nil {
			return
		}
		if feats.Rows() != n || feats.Cols() < 1 || feats.Cols() > MaxFeatureDim {
			t.Fatalf("feature matrix is %dx%d", feats.Rows(), feats.Cols())
		}
		for _, v := range feats.Data() {
			if v != 0 && v != 1 {
				t.Fatalf("feature entry %v is not binary", v)
			}
		}
	})
}
