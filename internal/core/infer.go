package core

import (
	"fmt"
	"runtime"

	"lumos/internal/autodiff"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/tensor"
	"lumos/internal/tree"
)

// This file implements the inference side of the train→publish→serve loop:
// ForestState captures the per-device tree state a replica needs to answer
// queries, and NewInferenceSystem rebuilds an evaluation-only System from it.
// Reconstruction reuses the training engine's own shard partition and forward
// path, so with the same weights, forest, and shard count the pooled
// embeddings — and therefore every prediction and pair score — are
// bit-identical to the training process's EvaluateAccuracy / EvaluateAUC.

// ForestState is the serializable inference state of a System: the shape of
// every device tree (node counts plus local message-passing edges) and the
// flattened forest the encoder runs over (initial leaf embeddings and the
// Eq. 31 pooling index arrays). Together with the encoder and head weights it
// is everything a serving replica needs; it carries no raw features, labels,
// or graph edges beyond what the LDP-initialized forest already encodes.
type ForestState struct {
	// N is the device/vertex count.
	N int
	// TreeNodes[v] is device v's tree node count; TreeEdges[v] its local
	// undirected edges (indices in [0, TreeNodes[v])).
	TreeNodes []int
	TreeEdges [][][2]int
	// X holds the initial forest-row embeddings (sum(TreeNodes) × InDim).
	X *tensor.Matrix
	// LeafRows/LeafVertex/PoolCoef mirror Forest's pooling arrays: the i-th
	// leaf's forest row (strictly ascending), its global vertex, and its
	// average-pooling coefficient.
	LeafRows   []int
	LeafVertex []int
	PoolCoef   []float64
}

// ForestState snapshots the system's forest and tree shapes into a
// self-contained, deep-copied state: training may continue mutating the
// system afterwards without affecting the capture.
func (s *System) ForestState() *ForestState {
	fs := &ForestState{
		N:          s.G.N,
		TreeNodes:  make([]int, len(s.Trees)),
		TreeEdges:  make([][][2]int, len(s.Trees)),
		X:          s.Forest.X.Clone(),
		LeafRows:   append([]int(nil), s.Forest.LeafRows...),
		LeafVertex: append([]int(nil), s.Forest.LeafVertex...),
		PoolCoef:   append([]float64(nil), s.Forest.PoolCoef...),
	}
	for v, t := range s.Trees {
		fs.TreeNodes[v] = t.NumNodes
		fs.TreeEdges[v] = append([][2]int(nil), t.Edges...)
	}
	return fs
}

// Validate checks the state's internal consistency: a corrupt or hand-built
// state must fail here, never panic inside the engine.
func (fs *ForestState) Validate() error {
	if fs == nil {
		return fmt.Errorf("core: nil forest state")
	}
	if fs.N <= 0 {
		return fmt.Errorf("core: forest state has %d devices", fs.N)
	}
	if len(fs.TreeNodes) != fs.N || len(fs.TreeEdges) != fs.N {
		return fmt.Errorf("core: forest state has %d node counts and %d edge lists for %d devices",
			len(fs.TreeNodes), len(fs.TreeEdges), fs.N)
	}
	total := 0
	for v, n := range fs.TreeNodes {
		if n < 1 {
			return fmt.Errorf("core: device %d tree has %d nodes", v, n)
		}
		total += n
		for _, e := range fs.TreeEdges[v] {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return fmt.Errorf("core: device %d tree edge (%d,%d) out of range [0,%d)", v, e[0], e[1], n)
			}
		}
	}
	if fs.X == nil {
		return fmt.Errorf("core: forest state has no embedding matrix")
	}
	if fs.X.Rows() != total {
		return fmt.Errorf("core: forest state has %d embedding rows for %d tree nodes", fs.X.Rows(), total)
	}
	if len(fs.LeafVertex) != len(fs.LeafRows) || len(fs.PoolCoef) != len(fs.LeafRows) {
		return fmt.Errorf("core: forest state leaf arrays disagree (%d rows, %d vertices, %d coefficients)",
			len(fs.LeafRows), len(fs.LeafVertex), len(fs.PoolCoef))
	}
	leafCount := make([]int, fs.N)
	prev := -1
	for i, row := range fs.LeafRows {
		if row <= prev || row >= total {
			return fmt.Errorf("core: forest state leaf row %d at index %d not strictly ascending in [0,%d)", row, i, total)
		}
		prev = row
		gv := fs.LeafVertex[i]
		if gv < 0 || gv >= fs.N {
			return fmt.Errorf("core: forest state leaf vertex %d out of range [0,%d)", gv, fs.N)
		}
		leafCount[gv]++
		if c := fs.PoolCoef[i]; !(c > 0 && c <= 1) {
			return fmt.Errorf("core: forest state pooling coefficient %v outside (0,1]", c)
		}
	}
	for v, c := range leafCount {
		if c == 0 {
			return fmt.Errorf("core: vertex %d unrepresented in forest state", v)
		}
	}
	return nil
}

// NewInferenceSystem rebuilds an evaluation-only System from a captured
// forest state and trained modules. head may be nil (link scoring only).
// shards must be the training system's resolved ShardCount(): the shard
// partition fixes the floating-point reduction order of the pooled
// embeddings, so matching it makes inference bit-identical to the trainer.
// workers sizes the forward worker pool (0 = one per CPU; results
// identical).
//
// The returned System supports the evaluation surface only — forward passes
// (Embeddings, Predictions, PairScores, EvaluateAccuracy with caller-side
// labels is unavailable: the state carries none) — and must not be trained:
// it has no devices, balancer, network fabric, or optimizer.
func NewInferenceSystem(fs *ForestState, enc *nn.GNN, head *nn.Linear, shards, workers int) (*System, error) {
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	if enc == nil {
		return nil, fmt.Errorf("core: inference system needs an encoder")
	}
	if enc.Cfg.InDim != fs.X.Cols() {
		return nil, fmt.Errorf("core: encoder expects %d input features, forest state has %d", enc.Cfg.InDim, fs.X.Cols())
	}
	if head != nil && head.In != enc.Cfg.OutDim {
		return nil, fmt.Errorf("core: head expects %d-dim embeddings, encoder emits %d", head.In, enc.Cfg.OutDim)
	}
	if shards < 1 {
		return nil, fmt.Errorf("core: inference system needs a positive shard count, got %d", shards)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", workers)
	}

	trees := make([]*tree.Tree, fs.N)
	forest := &Forest{
		X:          fs.X,
		LeafRows:   fs.LeafRows,
		LeafVertex: fs.LeafVertex,
		PoolCoef:   fs.PoolCoef,
		Offsets:    make([]int, fs.N),
	}
	total := 0
	for v := range trees {
		// The engine only consumes tree shapes (NumNodes + Edges); kinds and
		// vertex maps live implicitly in the leaf arrays.
		trees[v] = &tree.Tree{Center: v, NumNodes: fs.TreeNodes[v], Edges: fs.TreeEdges[v]}
		forest.Offsets[v] = total
		total += fs.TreeNodes[v]
	}
	forest.NumNodes = total

	task := Unsupervised
	if head != nil {
		task = Supervised
	}
	s := &System{
		Cfg: Config{
			Task:     task,
			Backbone: enc.Cfg.Backbone,
			Hidden:   enc.Cfg.Hidden,
			OutDim:   enc.Cfg.OutDim,
			Layers:   enc.Cfg.Layers,
			Heads:    enc.Cfg.Heads,
			Dropout:  enc.Cfg.Dropout,
			Workers:  workers,
			Shards:   shards,
		},
		G:       &graph.Graph{Name: "inference", N: fs.N},
		Forest:  forest,
		Trees:   trees,
		Encoder: enc,
		Head:    head,
	}
	s.eng = newEngine(s)
	return s, nil
}

// Predictions returns every vertex's argmax class in evaluation mode —
// exactly the predictions EvaluateAccuracy scores.
func (s *System) Predictions() ([]int, error) {
	if s.Head == nil {
		return nil, fmt.Errorf("core: class predictions need a supervised system")
	}
	return s.classes(s.forward(false)), nil
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
	pooled := s.forward(false)
	if s.Head != nil {
		preds = s.classes(pooled)
	}
	return pooled.Data.Clone(), preds
}

// PairScores returns the embedding dot product of each vertex pair in
// evaluation mode — exactly the scores EvaluateAUC ranks.
func (s *System) PairScores(pairs [][2]int) ([]float64, error) {
	emb := s.forward(false).Data
	scores := make([]float64, len(pairs))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= s.G.N || p[1] < 0 || p[1] >= s.G.N {
			return nil, fmt.Errorf("core: pair (%d,%d) out of range [0,%d)", p[0], p[1], s.G.N)
		}
		scores[i] = tensor.RowDot(emb, p[0], emb, p[1])
	}
	return scores, nil
}
