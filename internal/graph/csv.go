package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lumos/internal/tensor"
)

// CSV/edge-list ingestion. The paper's datasets (Facebook page-page, LastFM
// Asia from the MUSAE/FEATHER releases) ship as edge-list CSVs plus
// per-node feature/label tables. These loaders let the library run on the
// real crawls when they are available locally; the synthetic presets stand
// in when they are not.

// ReadEdgeList parses lines of "u,v" (or "u v" / "u\tv") pairs, ignoring
// blank lines and lines starting with '#' or a non-numeric header. Vertex
// ids must be non-negative integers below MaxVertices; n is inferred as max
// id + 1 unless a larger minN is given.
func ReadEdgeList(r io.Reader, minN int) (n int, edges [][2]int, err error) {
	if minN > MaxVertices {
		return 0, nil, fmt.Errorf("graph: %d vertices requested, above the limit of %d", minN, MaxVertices)
	}
	sc := newLineScanner(r)
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("graph: edge list line %d: %q", lineNo, line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			if lineNo == 1 {
				continue // header row ("id_1,id_2")
			}
			return 0, nil, fmt.Errorf("graph: edge list line %d: %q", lineNo, line)
		}
		if u < 0 || v < 0 {
			return 0, nil, fmt.Errorf("graph: negative vertex id on line %d", lineNo)
		}
		if u >= MaxVertices || v >= MaxVertices {
			return 0, nil, fmt.Errorf("graph: vertex id %d on line %d, above the limit of %d vertices", max(u, v), lineNo, MaxVertices)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	n = maxID + 1
	if n < minN {
		n = minN
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("graph: empty edge list")
	}
	return n, edges, nil
}

// ReadLabels parses lines of "id,label" into a dense label slice of length
// n (vertices absent from the file get label 0). Labels may be arbitrary
// strings; they are mapped to consecutive integers in order of first
// appearance. Returns the labels and the number of distinct classes.
func ReadLabels(r io.Reader, n int) ([]int, int, error) {
	if n < 0 || n > MaxVertices {
		return nil, 0, fmt.Errorf("graph: %d vertices, outside [0,%d]", n, MaxVertices)
	}
	sc := newLineScanner(r)
	labels := make([]int, n)
	classOf := map[string]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: label line %d: %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			if lineNo == 1 {
				continue // header
			}
			return nil, 0, fmt.Errorf("graph: label line %d: %q", lineNo, line)
		}
		if id < 0 || id >= n {
			return nil, 0, fmt.Errorf("graph: label id %d outside [0,%d)", id, n)
		}
		cls, ok := classOf[fields[1]]
		if !ok {
			cls = len(classOf)
			classOf[fields[1]] = cls
		}
		labels[id] = cls
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(classOf) < 2 {
		return nil, 0, fmt.Errorf("graph: label file has %d distinct classes", len(classOf))
	}
	return labels, len(classOf), nil
}

// ReadSparseFeatures parses lines of "id,dim" (one active binary feature
// per line, MUSAE style) into an n×d binary feature matrix; d is inferred
// as max dim + 1 unless a larger minD is given. n is at most MaxVertices, d
// at most MaxFeatureDim and n·d at most MaxFeatureEntries, all checked
// before the matrix is allocated.
func ReadSparseFeatures(r io.Reader, n, minD int) (*tensor.Matrix, error) {
	if n < 0 || n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices, outside [0,%d]", n, MaxVertices)
	}
	if minD > MaxFeatureDim {
		return nil, fmt.Errorf("graph: %d feature dimensions requested, above the limit of %d", minD, MaxFeatureDim)
	}
	sc := newLineScanner(r)
	type nz struct{ id, dim int }
	var entries []nz
	maxDim := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: feature line %d: %q", lineNo, line)
		}
		id, err1 := strconv.Atoi(fields[0])
		dim, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			if lineNo == 1 {
				continue // header
			}
			return nil, fmt.Errorf("graph: feature line %d: %q", lineNo, line)
		}
		if id < 0 || id >= n || dim < 0 || dim >= MaxFeatureDim {
			return nil, fmt.Errorf("graph: feature entry (%d,%d) out of range on line %d", id, dim, lineNo)
		}
		if dim > maxDim {
			maxDim = dim
		}
		entries = append(entries, nz{id, dim})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := maxDim + 1
	if d < minD {
		d = minD
	}
	if d == 0 {
		return nil, fmt.Errorf("graph: empty feature file")
	}
	if n*d > MaxFeatureEntries {
		return nil, fmt.Errorf("graph: %d×%d feature matrix, above the limit of %d entries", n, d, MaxFeatureEntries)
	}
	feats := tensor.New(n, d)
	for _, e := range entries {
		feats.Set(e.id, e.dim, 1)
	}
	return feats, nil
}

// LoadCSVDataset assembles a Graph from the three MUSAE-style readers.
// features and labels may be nil readers (pass nil) for structure-only
// graphs.
func LoadCSVDataset(name string, edgesR, featuresR, labelsR io.Reader) (*Graph, error) {
	n, edges, err := ReadEdgeList(edgesR, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: loading edges: %w", err)
	}
	var feats *tensor.Matrix
	if featuresR != nil {
		if feats, err = ReadSparseFeatures(featuresR, n, 0); err != nil {
			return nil, fmt.Errorf("graph: loading features: %w", err)
		}
	}
	var labels []int
	classes := 0
	if labelsR != nil {
		if labels, classes, err = ReadLabels(labelsR, n); err != nil {
			return nil, fmt.Errorf("graph: loading labels: %w", err)
		}
	}
	g, err := NewFromEdges(n, edges, feats, labels, classes)
	if err != nil {
		return nil, err
	}
	g.Name = name
	return g, nil
}

// maxLineLen bounds one line of a CSV input. The scanner's buffer starts
// small and grows with the longest line actually read.
const maxLineLen = 1 << 20

func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineLen)
	return sc
}

func splitFields(line string) []string {
	if strings.ContainsRune(line, ',') {
		parts := strings.Split(line, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	return strings.Fields(line)
}
