package topo

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
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

// readers are the two contact-graph schemas.
var readers = []struct {
	name string
	read func(io.Reader, int) (*Topology, error)
}{{"csv", readCSV}, {"json", readJSON}}

// A tiny file declaring a huge device count is refused before an adjacency
// table is sized by it. Before the bound, the 30-odd-byte CSV below built a
// 50M-device topology (1.2 GB of adjacency headers).
func TestReadRejectsHugeNodeCount(t *testing.T) {
	for _, c := range []struct{ schema, body string }{
		{"csv", "# nodes: 50000000\nsrc,dst\n0,1\n"},
		{"csv", fmt.Sprintf("# nodes: %d\nsrc,dst\n0,1\n", MaxNodes+1)},
		{"json", `{"nodes": 50000000, "edges": [[0,1]]}`},
		{"json", fmt.Sprintf(`{"nodes": %d, "edges": [[0,1]]}`, MaxNodes+1)},
	} {
		read := readCSV
		if c.schema == "json" {
			read = readJSON
		}
		var err error
		alloc := allocatedBy(func() { _, err = read(strings.NewReader(c.body), -1) })
		if err == nil {
			t.Errorf("%s %q: accepted", c.schema, c.body)
		}
		if limit := readAllocBound(len(c.body), 0); alloc > limit {
			t.Errorf("%s %q: allocated %d bytes refusing it, bound %d", c.schema, c.body, alloc, limit)
		}
	}
	// MaxNodes itself is a valid declaration: isolated devices appear in no
	// edge row.
	tp, err := readCSV(strings.NewReader(fmt.Sprintf("# nodes: %d\nsrc,dst\n0,1\n", MaxNodes)), -1)
	if err != nil || tp.N() != MaxNodes {
		t.Fatalf("MaxNodes declaration: %v", err)
	}
}

// A file: spec whose file declares a different device count from the fleet
// is refused before the file's count sizes anything.
func TestBuildFileRejectsCountBeforeAllocating(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, body string }{
		{"big.csv", fmt.Sprintf("# nodes: %d\nsrc,dst\n0,1\n", MaxNodes)},
		{"big.json", fmt.Sprintf(`{"nodes": %d, "edges": [[0,1]]}`, MaxNodes)},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := ParseSpec("file:" + path)
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocatedBy(func() { _, err = sp.Build(16, 1) })
		if err == nil || !strings.Contains(err.Error(), "fleet has 16") {
			t.Errorf("%s over 16 devices: %v, want a device-count mismatch", c.name, err)
		}
		if limit := readAllocBound(len(c.body), 0); alloc > limit {
			t.Errorf("%s: allocated %d bytes refusing it, bound %d", c.name, alloc, limit)
		}
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

// FuzzReadTopology: on any input each reader returns an error or a valid
// topology, never panics, and never allocates past readAllocBound. A
// topology it accepts survives a write and re-read in both schemas.
func FuzzReadTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range readers {
			var tp *Topology
			var err error
			alloc := allocatedBy(func() { tp, err = r.read(bytes.NewReader(data), -1) })
			n := 0
			if err == nil {
				n = tp.N()
			}
			if limit := readAllocBound(len(data), n); alloc > limit {
				t.Fatalf("%s reader allocated %d bytes on %d input bytes (%d devices), bound %d", r.name, alloc, len(data), n, limit)
			}
			if err != nil {
				continue
			}
			checkTopology(t, tp)
			for _, w := range readers {
				var buf bytes.Buffer
				write := writeCSV
				if w.name == "json" {
					write = writeJSON
				}
				if err := write(tp, &buf); err != nil {
					t.Fatalf("%s write: %v", w.name, err)
				}
				back, err := w.read(&buf, -1)
				if err != nil {
					t.Fatalf("%s topology does not re-read as %s: %v", r.name, w.name, err)
				}
				if back.N() != n || !reflect.DeepEqual(edges(back), edges(tp)) {
					t.Fatalf("%s topology changed across a %s round trip", r.name, w.name)
				}
			}
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

// writeCSV writes t in the CSV schema, comment header first — including the
// required nodes directive — then canonical u<v edges in lexicographic
// order, so write→load→write is byte-stable.
func writeCSV(t *Topology, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Lumos contact topology v1: one undirected edge per row.\n")
	fmt.Fprintf(bw, "# nodes: %d\n", t.n)
	cw := csv.NewWriter(bw)
	if err := cw.Write(edgeColumns); err != nil {
		return err
	}
	for _, e := range edges(t) {
		if err := cw.Write([]string{strconv.Itoa(e[0]), strconv.Itoa(e[1])}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// writeJSON writes t in the JSON schema, edges in canonical order.
func writeJSON(t *Topology, w io.Writer) error {
	jt := jsonTopology{Name: t.name, Nodes: t.n, Edges: edges(t)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}
