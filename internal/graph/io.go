package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lumos/internal/tensor"
)

// Binary (de)serialization so generated datasets can be stored and shared
// (cmd/lumos-datagen). Format: magic, name, dims, edges, labels, feature
// matrix blob — all little-endian and length-prefixed.

const graphMagic = uint32(0x4c475248) // "LGRH"

// Write serializes the graph.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	write := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	name := []byte(g.Name)
	if err := write(graphMagic, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := write(uint32(g.N), uint32(len(g.Edges)), uint32(g.NumClasses),
		g.FeatLo, g.FeatHi); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if err := write(uint32(e[0]), uint32(e[1])); err != nil {
			return err
		}
	}
	hasLabels := uint32(0)
	if g.Labels != nil {
		hasLabels = 1
	}
	if err := write(hasLabels); err != nil {
		return err
	}
	if g.Labels != nil {
		for _, y := range g.Labels {
			if err := write(uint32(y)); err != nil {
				return err
			}
		}
	}
	hasFeats := uint32(0)
	if g.Features != nil {
		hasFeats = 1
	}
	if err := write(hasFeats); err != nil {
		return err
	}
	if g.Features != nil {
		blob, err := g.Features.MarshalBinary()
		if err != nil {
			return err
		}
		if err := write(uint32(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Limits on what a graph input may declare. Every reader checks a count
// against its limit before anything is sized by it, and grows every other
// container as the bytes that back it arrive. So what a reader allocates is
// a constant, plus a small multiple of the input's length, plus one
// adjacency header per declared vertex (at most MaxVertices), plus — for
// ReadSparseFeatures — the n×d matrix it returns (at most
// MaxFeatureEntries). A short input fails on EOF having allocated little.
const (
	// MaxVertices bounds a graph's vertex count: a binary header's, or one
	// more than the largest id a CSV file names. The paper's datasets have
	// 22 470 and 7 624 vertices, and a vertex is a device, which
	// topo.MaxNodes bounds at the same 2^20.
	MaxVertices = 1 << 20
	// MaxNameLen bounds a binary file's dataset name.
	MaxNameLen = 1 << 10
	// MaxFeatureDim bounds a feature matrix's width (one more than the
	// largest dimension a CSV file names). The MUSAE releases have 4 714
	// (Facebook) and 7 842 (LastFM) binary feature dimensions.
	MaxFeatureDim = 1 << 16
	// MaxFeatureEntries bounds n·d for a feature matrix a CSV reader sizes
	// from ids: 2^27 float64s (1 GiB) holds the full Facebook release
	// densely (22 470 × 4 714 ≈ 1.06·10^8).
	MaxFeatureEntries = 1 << 27
)

// Read deserializes a graph written by Write. Every declared count is
// bounded (MaxNameLen, MaxVertices) or backed by the bytes that follow it
// before it sizes anything; labels must lie in [0, classes), the feature
// bounds must be finite with lo < hi, and nothing may follow the features.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var word [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, word[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(word[:4]), nil
	}
	f64 := func() (float64, error) {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(word[:])), nil
	}
	magic, err := u32()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if magic != graphMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	nameLen, err := u32()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if nameLen > MaxNameLen {
		return nil, fmt.Errorf("graph: name of %d bytes, above the limit of %d", nameLen, MaxNameLen)
	}
	name, err := readExactly(br, int64(nameLen))
	if err != nil {
		return nil, fmt.Errorf("graph: reading name: %w", err)
	}
	var counts [3]uint32 // vertices, edges, classes
	for i := range counts {
		if counts[i], err = u32(); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	n, m, classes := counts[0], counts[1], counts[2]
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: declares %d vertices, above the limit of %d", n, MaxVertices)
	}
	lo, err := f64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	hi, err := f64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("graph: feature bounds [%v, %v] are not a finite interval", lo, hi)
	}
	// m is untrusted until its edges arrive: grow with them.
	var edges [][2]int
	for i := uint32(0); i < m; i++ {
		u, err := u32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d/%d: %w", i+1, m, err)
		}
		v, err := u32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d/%d: %w", i+1, m, err)
		}
		edges = append(edges, [2]int{int(u), int(v)})
	}
	present := func(what string) (bool, error) {
		flag, err := u32()
		if err != nil {
			return false, fmt.Errorf("graph: reading %s flag: %w", what, err)
		}
		if flag > 1 {
			return false, fmt.Errorf("graph: %s flag %d is neither 0 nor 1", what, flag)
		}
		return flag == 1, nil
	}
	hasLabels, err := present("label")
	if err != nil {
		return nil, err
	}
	var labels []int
	if hasLabels {
		for i := uint32(0); i < n; i++ {
			y, err := u32()
			if err != nil {
				return nil, fmt.Errorf("graph: reading label %d/%d: %w", i+1, n, err)
			}
			if y >= classes {
				return nil, fmt.Errorf("graph: vertex %d has label %d, outside [0,%d)", i, y, classes)
			}
			labels = append(labels, int(y))
		}
	}
	hasFeats, err := present("feature")
	if err != nil {
		return nil, err
	}
	var feats *tensor.Matrix
	if hasFeats {
		blobLen, err := u32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading feature length: %w", err)
		}
		blob, err := readExactly(br, int64(blobLen))
		if err != nil {
			return nil, fmt.Errorf("graph: reading features: %w", err)
		}
		var mat tensor.Matrix
		if err := mat.UnmarshalBinary(blob); err != nil {
			return nil, err
		}
		feats = &mat
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("graph: trailing data after the features")
		}
		return nil, fmt.Errorf("graph: reading trailer: %w", err)
	}
	g, err := NewFromEdges(int(n), edges, feats, labels, int(classes))
	if err != nil {
		return nil, err
	}
	g.Name = string(name)
	g.FeatLo, g.FeatHi = lo, hi
	return g, nil
}

// readExactly reads n bytes into a buffer that grows as they arrive, so an
// untrusted length costs memory only for the bytes actually there.
func readExactly(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if got, err := io.CopyN(&buf, r, n); err != nil {
		return nil, fmt.Errorf("got %d of %d bytes: %w", got, n, err)
	}
	return buf.Bytes(), nil
}
