package nn

import (
	"fmt"
	"math/rand"
	"strings"

	"lumos/internal/autodiff"
)

// Backbone selects the GNN layer family, mirroring the paper's two
// backbones (GCN [15] and GAT [16]).
type Backbone int

const (
	// GCN selects graph convolutional layers.
	GCN Backbone = iota
	// GAT selects multi-head graph attention layers.
	GAT
)

// String returns the backbone name as used in the paper's tables.
func (b Backbone) String() string {
	switch b {
	case GCN:
		return "GCN"
	case GAT:
		return "GAT"
	default:
		return fmt.Sprintf("Backbone(%d)", int(b))
	}
}

// ParseBackbone parses a backbone name as used in CLI flags, in any case
// ("gcn" or "gat").
func ParseBackbone(name string) (Backbone, error) {
	switch strings.ToLower(name) {
	case "gcn":
		return GCN, nil
	case "gat":
		return GAT, nil
	default:
		return 0, fmt.Errorf("nn: unknown backbone %q (want gcn|gat)", name)
	}
}

// GNNConfig describes a multi-layer GNN encoder. PaperGNN is the paper's
// setting.
type GNNConfig struct {
	Backbone Backbone
	InDim    int
	Hidden   int
	OutDim   int
	Layers   int
	Heads    int     // GAT only
	Dropout  float64 // applied after each hidden activation
}

// PaperGNN is the encoder of every system in the paper's evaluation over
// inDim input features: Layers=2, Hidden=Out=16, Heads=4 (GAT only) and
// Dropout=0.01. Lumos and its baselines all build from it, so accuracy
// differences between them come from the privacy and federation mechanisms,
// not the model. Adam trains it at PaperLearningRate with PaperWeightDecay.
func PaperGNN(b Backbone, inDim int) GNNConfig {
	return GNNConfig{Backbone: b, InDim: inDim, Hidden: 16, OutDim: 16, Layers: 2, Heads: 4, Dropout: 0.01}
}

// The paper's optimizer setting for PaperGNN: Adam at learning rate 0.01,
// with L2 weight decay 5e-4 (the standard GCN setting).
const (
	PaperLearningRate = 0.01
	PaperWeightDecay  = 5e-4
)

// Validate fills defaults and checks consistency.
func (c *GNNConfig) Validate() error {
	if c.Layers <= 0 {
		c.Layers = 2
	}
	if c.Heads <= 0 {
		c.Heads = 1
	}
	if c.InDim <= 0 || c.Hidden <= 0 || c.OutDim <= 0 {
		return fmt.Errorf("nn: GNNConfig dims must be positive (in=%d hidden=%d out=%d)",
			c.InDim, c.Hidden, c.OutDim)
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("nn: dropout %v outside [0,1)", c.Dropout)
	}
	return nil
}

// convLayer abstracts GCNConv and GATConv behind one interface. A layer's
// Forward is its preBias output plus its bias; GNN.Forward adds a hidden
// layer's bias inside the fused activation instead.
type convLayer interface {
	Module
	Forward(g *ConvGraph, x *autodiff.Value) *autodiff.Value
	preBias(g *ConvGraph, x *autodiff.Value) *autodiff.Value
	bias() *autodiff.Value
}

// GNN is a multi-layer graph neural network encoder: conv → ReLU → dropout,
// repeated, with no activation after the final layer (embeddings come out
// raw, as in the paper).
type GNN struct {
	Cfg    GNNConfig
	layers []convLayer
}

// NewGNN constructs a GNN encoder per cfg with Glorot initialization.
func NewGNN(cfg GNNConfig, rng *rand.Rand) (*GNN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &GNN{Cfg: cfg}
	in := cfg.InDim
	for i := 0; i < cfg.Layers; i++ {
		last := i == cfg.Layers-1
		out := cfg.Hidden
		if last {
			out = cfg.OutDim
		}
		name := fmt.Sprintf("gnn.l%d", i)
		switch cfg.Backbone {
		case GCN:
			m.layers = append(m.layers, NewGCNConv(name, in, out, rng))
			in = out
		case GAT:
			// Hidden layers concatenate heads; the final layer averages
			// them, the standard GAT arrangement.
			l := NewGATConv(name, in, out, cfg.Heads, !last, rng)
			m.layers = append(m.layers, l)
			in = l.OutDim()
		default:
			return nil, fmt.Errorf("nn: unknown backbone %v", cfg.Backbone)
		}
	}
	return m, nil
}

// EmbeddingDim returns the width of the encoder output.
func (m *GNN) EmbeddingDim() int { return m.Cfg.OutDim }

// Forward encodes node features x over graph g. training enables dropout.
// A hidden layer's bias, ReLU and dropout are one autodiff.BiasReLUDropout
// over the conv's pre-bias output; the last layer is the conv's own
// Forward, bias included.
//
// The tape enters through x: wrap the features with Tape.Const (or Tape.Var)
// and the whole forward records onto that tape — every op output,
// activation mask, and gradient buffer comes from the tape's free-list and
// is recycled by its next Reset. The parameters themselves are on no tape,
// so one model serves any number of tapes.
func (m *GNN) Forward(g *ConvGraph, x *autodiff.Value, training bool, rng *rand.Rand) *autodiff.Value {
	h := x
	for i, l := range m.layers {
		if i == len(m.layers)-1 {
			return l.Forward(g, h)
		}
		h = autodiff.BiasReLUDropout(l.preBias(g, h), l.bias(), m.Cfg.Dropout, rng, training)
	}
	return h
}

// Params implements Module.
func (m *GNN) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// CloneShared returns a view of the encoder whose parameters share m's
// matrices but own independent gradient buffers (see ShareParam). The view's
// Params() come back in the same order as m's, so per-view gradients can be
// reduced positionally.
func (m *GNN) CloneShared() *GNN {
	c := &GNN{Cfg: m.Cfg}
	for _, l := range m.layers {
		switch t := l.(type) {
		case *GCNConv:
			c.layers = append(c.layers, t.CloneShared())
		case *GATConv:
			c.layers = append(c.layers, t.CloneShared())
		default:
			panic(fmt.Sprintf("nn: CloneShared: unknown layer type %T", l))
		}
	}
	return c
}
