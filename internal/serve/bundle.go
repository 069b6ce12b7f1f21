// Package serve answers node-classification and link-scoring queries from
// published model snapshots. A Bundle is one immutable snapshot's serving
// tables (pooled embeddings plus precomputed predictions); a Server
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

// NewBundle wraps a snapshot's serving tables, which the bundle shares
// rather than copies: the caller must not mutate them afterwards. The
// tables are the training process's own evaluation outputs, so every answer
// the bundle gives is bit-identical to that process's EvaluateAccuracy and
// EvaluateAUC of the same model.
func NewBundle(s *snapshot.Snapshot) (*Bundle, error) {
	if s.Emb == nil {
		return nil, fmt.Errorf("serve: snapshot v%d has no embedding table", s.Meta.Version)
	}
	if (s.Classes == 0) != (s.Preds == nil) || (s.Preds != nil && len(s.Preds) != s.Emb.Rows()) {
		return nil, fmt.Errorf("serve: snapshot v%d has %d classes and %d predictions for %d vertices",
			s.Meta.Version, s.Classes, len(s.Preds), s.Emb.Rows())
	}
	return &Bundle{
		Version: s.Meta.Version,
		Meta:    s.Meta,
		N:       s.Emb.Rows(),
		Classes: s.Classes,
		emb:     s.Emb,
		preds:   s.Preds,
	}, nil
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
