package topo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// jsonTopology is a contact-graph file's schema (version 1): one JSON
// object, whatever the file's extension,
//
//	{"name": "...", "nodes": 4, "edges": [[0,1],[1,2]]}
//
// "nodes" carries the device count, since isolated devices appear in no
// edge. An edge is exactly two endpoints. Edges are undirected and may
// appear in either orientation, but each pair at most once; self-loops and
// out-of-range endpoints are rejected on load, as is anything after the
// object.
type jsonTopology struct {
	Name  string  `json:"name,omitempty"`
	Nodes int     `json:"nodes"`
	Edges [][]int `json:"edges"`
}

// MaxNodes bounds the device count a contact-graph file may declare. The
// reader checks the declared count before anything is sized by it, so a
// short file cannot make it allocate a huge adjacency table: what the
// reader allocates is bounded by a constant times the input's length plus
// one adjacency header per declared device, and nothing per device when it
// fails.
const MaxNodes = 1 << 20

// load reads a contact graph from path. The result is fully validated;
// when want ≥ 0 the file must declare exactly want devices, which is checked
// before the topology is built.
func load(path string, want int) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topo: open contact graph: %w", err)
	}
	defer f.Close()
	t, err := readJSON(f, want)
	if err != nil {
		return nil, fmt.Errorf("topo: contact graph %s: %w", path, err)
	}
	if t.name == "" {
		t.name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return t, nil
}

// readJSON parses a contact-graph file. Its declared device count must be
// at most MaxNodes, and exactly want when want ≥ 0.
func readJSON(r io.Reader, want int) (*Topology, error) {
	var jt jsonTopology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the contact-graph object")
	}
	if jt.Nodes > MaxNodes {
		return nil, fmt.Errorf("declares %d devices, above the limit of %d", jt.Nodes, MaxNodes)
	}
	if want >= 0 && jt.Nodes != want {
		return nil, fmt.Errorf("covers %d devices, fleet has %d", jt.Nodes, want)
	}
	edges := make([][2]int, len(jt.Edges))
	for i, e := range jt.Edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("edge %d has %d endpoints, want 2", i, len(e))
		}
		edges[i] = [2]int{e[0], e[1]}
	}
	return FromEdges(jt.Name, jt.Nodes, edges)
}
