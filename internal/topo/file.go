package topo

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Contact-graph files mirror fleet.Trace's on-disk conventions: '#' comment
// lines, a canonical header, validate-on-load, lossless round-trip, and
// a reader that dispatches on the .json extension.
//
// On-disk schema (version 1):
//
//   - CSV (.csv, or anything not .json): '#'-prefixed comment lines — one of
//     which must be the "# nodes: <n>" directive carrying the device count,
//     since isolated devices appear in no edge row — then the "src,dst"
//     header, then one undirected edge per row:
//
//     # Lumos contact topology v1: one undirected edge per row.
//     # nodes: 4
//     src,dst
//     0,1
//     1,2
//
//   - JSON (.json): {"name": "...", "nodes": 4, "edges": [[0,1],[1,2]]}
//
// Edges are undirected and may appear in either orientation, but each pair
// at most once; self-loops and out-of-range endpoints are rejected on load.

// edgeColumns is the canonical CSV header.
var edgeColumns = []string{"src", "dst"}

// jsonTopology mirrors the JSON schema.
type jsonTopology struct {
	Name  string   `json:"name,omitempty"`
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// MaxNodes bounds the device count a contact-graph file may declare. Every
// reader checks the declared count before anything is sized by it, so a
// short file cannot make a reader allocate a huge adjacency table: what a
// reader allocates is bounded by a constant times the input's length plus
// one adjacency header per declared device, and nothing per device when it
// fails.
const MaxNodes = 1 << 20

// load reads a contact graph from path, dispatching on the extension
// exactly as fleet.LoadTrace does: .json parses the JSON schema, everything
// else the CSV schema. The result is fully validated; when want ≥ 0 the
// file must declare exactly want devices, which is checked before the
// topology is built.
func load(path string, want int) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topo: open contact graph: %w", err)
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	var t *Topology
	if strings.EqualFold(filepath.Ext(path), ".json") {
		t, err = readJSON(f, want)
	} else {
		t, err = readCSV(f, want)
	}
	if err != nil {
		return nil, fmt.Errorf("topo: contact graph %s: %w", path, err)
	}
	if t.name == "" {
		t.name = name
	}
	return t, nil
}

// checkNodes bounds a file's declared device count: at most MaxNodes, and
// exactly want when want ≥ 0.
func checkNodes(n, want int) error {
	if n > MaxNodes {
		return fmt.Errorf("declares %d devices, above the limit of %d", n, MaxNodes)
	}
	if want >= 0 && n != want {
		return fmt.Errorf("covers %d devices, fleet has %d", n, want)
	}
	return nil
}

// readCSV parses the CSV contact-graph schema. The "# nodes: <n>" comment
// directive is required — it is the only place the device count lives, and
// without it isolated devices would silently vanish.
func readCSV(r io.Reader, want int) (*Topology, error) {
	// csv.Reader's Comment option would discard the nodes directive with the
	// rest of the comments, so comments are peeled manually line by line.
	nodes := -1
	var dataLines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if rest, ok := strings.CutPrefix(body, "nodes:"); ok {
				n, err := strconv.Atoi(strings.TrimSpace(rest))
				if err != nil {
					return nil, fmt.Errorf("bad nodes directive %q: %w", line, err)
				}
				nodes = n
			}
			continue
		}
		dataLines = append(dataLines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if nodes < 0 {
		return nil, fmt.Errorf("missing \"# nodes: <n>\" directive")
	}
	if err := checkNodes(nodes, want); err != nil {
		return nil, err
	}
	if len(dataLines) == 0 {
		return nil, fmt.Errorf("missing %s header", strings.Join(edgeColumns, ","))
	}
	cr := csv.NewReader(strings.NewReader(strings.Join(dataLines, "\n")))
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	header := rows[0]
	if len(header) != len(edgeColumns) {
		return nil, fmt.Errorf("header has %d columns, want %d (%s)", len(header), len(edgeColumns), strings.Join(edgeColumns, ","))
	}
	for i, c := range header {
		if !strings.EqualFold(strings.TrimSpace(c), edgeColumns[i]) {
			return nil, fmt.Errorf("column %d is %q, want %q", i, c, edgeColumns[i])
		}
	}
	edges := make([][2]int, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("edge row %d: %d fields, want 2", i, len(row))
		}
		u, err := strconv.Atoi(strings.TrimSpace(row[0]))
		if err != nil {
			return nil, fmt.Errorf("edge row %d: src: %w", i, err)
		}
		v, err := strconv.Atoi(strings.TrimSpace(row[1]))
		if err != nil {
			return nil, fmt.Errorf("edge row %d: dst: %w", i, err)
		}
		edges = append(edges, [2]int{u, v})
	}
	return FromEdges("", nodes, edges)
}

// readJSON parses the JSON contact-graph schema.
func readJSON(r io.Reader, want int) (*Topology, error) {
	var jt jsonTopology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, err
	}
	if err := checkNodes(jt.Nodes, want); err != nil {
		return nil, err
	}
	return FromEdges(jt.Name, jt.Nodes, jt.Edges)
}
