package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllocBound is the most a reader may allocate for an input of size
// bytes that yields a topology of n devices (n = 0 when it fails): a
// constant, a constant per input byte, and an adjacency header per device.
func readAllocBound(size, n int) uint64 {
	return 1<<20 + 256*uint64(size) + 64*uint64(n)
}

// A tiny file declaring a huge device count is refused before an adjacency
// table is sized by it. Before the bound, the 30-odd-byte file below built a
// 50M-device topology (1.2 GB of adjacency headers).
func TestReadRejectsHugeNodeCount(t *testing.T) {
	for _, body := range []string{
		`{"nodes": 50000000, "edges": [[0,1]]}`,
		fmt.Sprintf(`{"nodes": %d, "edges": [[0,1]]}`, MaxNodes+1),
	} {
		var err error
		alloc := allocatedBy(func() { _, err = readJSON(strings.NewReader(body), -1) })
		if err == nil {
			t.Errorf("%q: accepted", body)
		}
		if limit := readAllocBound(len(body), 0); alloc > limit {
			t.Errorf("%q: allocated %d bytes refusing it, bound %d", body, alloc, limit)
		}
	}
	// MaxNodes itself is a valid declaration: isolated devices appear in no
	// edge.
	tp, err := readJSON(strings.NewReader(fmt.Sprintf(`{"nodes": %d, "edges": [[0,1]]}`, MaxNodes)), -1)
	if err != nil || tp.N() != MaxNodes {
		t.Fatalf("MaxNodes declaration: %v", err)
	}
}

// A file: spec whose file declares a different device count from the fleet
// is refused before the file's count sizes anything.
func TestBuildFileRejectsCountBeforeAllocating(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"nodes": %d, "edges": [[0,1]]}`, MaxNodes)
	path := filepath.Join(dir, "big.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	alloc := allocatedBy(func() { _, err = sp.Build(16, 1) })
	if err == nil || !strings.Contains(err.Error(), "fleet has 16") {
		t.Errorf("big.json over 16 devices: %v, want a device-count mismatch", err)
	}
	if limit := readAllocBound(len(body), 0); alloc > limit {
		t.Errorf("big.json: allocated %d bytes refusing it, bound %d", alloc, limit)
	}
}

// checkTopology fails unless tp is a valid topology: a device count in
// [2, MaxNodes], sorted neighbour lists in range, no self-loops or
// duplicates, and symmetric adjacency.
func checkTopology(t *testing.T, tp *Topology) {
	t.Helper()
	n := tp.N()
	if n < 2 || n > MaxNodes || len(tp.adj) != n {
		t.Fatalf("device count %d (adjacency %d) outside [2, %d]", n, len(tp.adj), MaxNodes)
	}
	for u, ns := range tp.adj {
		for i, v := range ns {
			if v < 0 || v >= n || v == u || (i > 0 && ns[i-1] >= v) {
				t.Fatalf("device %d: neighbour list %v is not a sorted set in range without %d", u, ns, u)
			}
			back := tp.adj[v]
			if k := sort.SearchInts(back, u); k == len(back) || back[k] != u {
				t.Fatalf("edge %d→%d has no reverse", u, v)
			}
		}
	}
}

// FuzzReadTopology: on any input readJSON returns an error or a valid
// topology, never panics, and never allocates past readAllocBound. A
// topology it accepts survives a write and re-read unchanged. The csv-*
// seeds are CSV contact graphs, kept as inputs the reader rejects.
func FuzzReadTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tp *Topology
		var err error
		alloc := allocatedBy(func() { tp, err = readJSON(bytes.NewReader(data), -1) })
		n := 0
		if err == nil {
			n = tp.N()
		}
		if limit := readAllocBound(len(data), n); alloc > limit {
			t.Fatalf("reader allocated %d bytes on %d input bytes (%d devices), bound %d", alloc, len(data), n, limit)
		}
		if err != nil {
			return
		}
		checkTopology(t, tp)
		var buf bytes.Buffer
		if err := writeJSON(tp, &buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := readJSON(&buf, -1)
		if err != nil {
			t.Fatalf("written topology does not re-read: %v", err)
		}
		if back.N() != n || !reflect.DeepEqual(edges(back), edges(tp)) {
			t.Fatal("topology changed across a round trip")
		}
	})
}

// FuzzParseSpec: ParseSpec returns an error or a spec whose String parses
// back to the same spec, and building a generator spec over a small fleet
// returns an error or a valid topology of that size, never a panic.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.String())
		if err != nil || again != sp {
			t.Fatalf("ParseSpec(%q) = %+v, whose String %q parses to %+v, %v", s, sp, sp.String(), again, err)
		}
		if sp.Kind == "file" {
			return
		}
		tp, err := sp.Build(12, 1)
		if err != nil {
			return
		}
		if tp.N() != 12 {
			t.Fatalf("%q over 12 devices built %d", s, tp.N())
		}
		checkTopology(t, tp)
	})
}

// writeJSON writes t in the JSON schema, edges in canonical order.
func writeJSON(t *Topology, w io.Writer) error {
	jt := jsonTopology{Name: t.name, Nodes: t.n}
	for _, e := range edges(t) {
		jt.Edges = append(jt.Edges, e[:])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}
