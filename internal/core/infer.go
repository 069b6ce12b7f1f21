package core

import (
	"fmt"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// This file is the evaluation surface a serving replica answers from:
// ServingTables computes, in one evaluation-mode forward, exactly what
// Predictions and Embeddings return, and a published snapshot carries those
// two tables, so every served class and pair score is bit-identical to
// EvaluateAccuracy / EvaluateAUC in the training process.

// Predictions returns every vertex's argmax class in evaluation mode —
// exactly the predictions EvaluateAccuracy scores.
func (s *System) Predictions() ([]int, error) {
	if s.Head == nil {
		return nil, fmt.Errorf("core: class predictions need a supervised system")
	}
	return s.classes(s.eng.forward()), nil
}

// classes returns the argmax class the head assigns each pooled embedding.
func (s *System) classes(pooled *autodiff.Value) []int {
	logits := s.Head.Forward(pooled)
	pred := make([]int, s.G.N)
	for v := 0; v < s.G.N; v++ {
		pred[v] = tensor.ArgMaxRow(logits.Data, v)
	}
	return pred
}

// ServingTables runs one evaluation-mode forward and returns the two tables
// a serving replica answers from: what Embeddings returns and, when the
// system has a head, what Predictions returns (nil otherwise).
func (s *System) ServingTables() (emb *tensor.Matrix, preds []int) {
	pooled := s.eng.forward()
	if s.Head != nil {
		preds = s.classes(pooled)
	}
	return pooled.Data.Clone(), preds
}

// PairScores returns the embedding dot product of each vertex pair in
// evaluation mode — exactly the scores EvaluateAUC ranks.
func (s *System) PairScores(pairs [][2]int) ([]float64, error) {
	emb := s.eng.forward().Data
	scores := make([]float64, len(pairs))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= s.G.N || p[1] < 0 || p[1] >= s.G.N {
			return nil, fmt.Errorf("core: pair (%d,%d) out of range [0,%d)", p[0], p[1], s.G.N)
		}
		scores[i] = tensor.RowDot(emb, p[0], emb, p[1])
	}
	return scores, nil
}
