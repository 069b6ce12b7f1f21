// Package serve answers node-classification and link-scoring queries from
// published model snapshots. A Bundle is one immutable snapshot prepared
// for serving (embedding cache plus precomputed predictions); a Server
// batches incoming queries against the current bundle and hot-swaps to a
// newer bundle atomically, so a query always sees one consistent model
// version and versions only ever move forward.
package serve

import (
	"fmt"

	"lumos/internal/snapshot"
	"lumos/internal/tensor"
)

// Bundle is an immutable, fully-materialized serving unit: the snapshot's
// metadata plus the read-mostly caches queries are answered from. Nothing
// in a bundle is mutated after NewBundle returns, which is what makes the
// lock-free hot swap safe — readers either see the old bundle or the new
// one, never a mix.
type Bundle struct {
	Version uint64
	Meta    snapshot.Meta
	N       int // vertex count
	Classes int // 0 = link scoring only

	emb   *tensor.Matrix // pooled per-vertex embeddings (N × OutDim)
	preds []int          // per-vertex argmax class; nil when Classes == 0
}

// NewBundle runs the snapshot's inference system once — a single forward
// pass — and caches its outputs. The forward pass reuses the training shard
// partition, so every answer the bundle gives is bit-identical to the
// training process's own evaluation of the same model.
func NewBundle(s *snapshot.Snapshot) (*Bundle, error) {
	if (s.Classes == 0) != (s.Head == nil) {
		return nil, fmt.Errorf("serve: snapshot has Classes=%d with head=%v", s.Classes, s.Head != nil)
	}
	sys, err := s.System()
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding system: %w", err)
	}
	b := &Bundle{
		Version: s.Meta.Version,
		Meta:    s.Meta,
		N:       s.State.N,
		Classes: s.Classes,
	}
	b.emb, b.preds = sys.ServingTables()
	return b, nil
}

// Classify returns the predicted class of each queried vertex.
func (b *Bundle) Classify(nodes []int) ([]int, error) {
	if b.preds == nil {
		return nil, fmt.Errorf("serve: model v%d has no classification head", b.Version)
	}
	out := make([]int, len(nodes))
	for i, v := range nodes {
		if v < 0 || v >= b.N {
			return nil, fmt.Errorf("serve: node %d out of range [0,%d)", v, b.N)
		}
		out[i] = b.preds[v]
	}
	return out, nil
}

// Score returns the embedding dot product of each queried vertex pair —
// the link-prediction score EvaluateAUC ranks.
func (b *Bundle) Score(pairs [][2]int) ([]float64, error) {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= b.N || p[1] < 0 || p[1] >= b.N {
			return nil, fmt.Errorf("serve: pair (%d,%d) out of range [0,%d)", p[0], p[1], b.N)
		}
		out[i] = tensor.RowDot(b.emb, p[0], b.emb, p[1])
	}
	return out, nil
}
