package core

import (
	"fmt"

	"lumos/internal/balance"
	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/rng"
	"lumos/internal/tree"
)

// System is a fully assembled Lumos deployment over one graph: devices,
// server, network fabric, balanced trees, forest, and the shared model.
type System struct {
	Cfg Config
	// G is the graph trees are built on (for unsupervised training this is
	// the training-edge subgraph); Full is the complete graph, used only
	// for knowledge each device legitimately has (its own full neighbor
	// list, for negative sampling) and for evaluation.
	G    *graph.Graph
	Full *graph.Graph

	Devices []*fed.Device
	Server  *fed.Server
	Net     *fed.Network

	Balanced *balance.Result
	Trees    []*tree.Tree
	Forest   *Forest

	Encoder *nn.GNN
	Head    *nn.Linear // supervised head; nil for unsupervised
	opt     *nn.Adam
	eng     *engine
}

// NewSystem builds a Lumos system: devices are instantiated, the tree
// constructor runs (greedy init + MCMC, or the w.o.-TT bypass), trees are
// built (or flattened for w.o. VN), the LDP embedding initialization
// exchanges encoded features, and the shared model is created.
//
// full may equal g (supervised). For unsupervised training pass the
// training subgraph as g and the complete graph as full.
func NewSystem(g, full *graph.Graph, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g == nil || full == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if g.N != full.N {
		return nil, fmt.Errorf("core: train graph has %d vertices, full graph %d", g.N, full.N)
	}
	s := &System{
		Cfg:     cfg,
		G:       g,
		Full:    full,
		Devices: fed.NewDevices(g, cfg.Seed),
		Server:  fed.NewServer(cfg.Seed),
		Net:     fed.NewNetwork(g.N),
	}

	// Tree constructor (§V).
	if cfg.DisableTreeTrimming {
		s.Balanced = balance.WithoutTrimming(g)
	} else {
		res, err := balance.Balance(g, s.Devices, s.Server, balance.Config{
			Iterations: cfg.MCMCIterations,
			Secure:     cfg.SecureCompare,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: tree trimming: %w", err)
		}
		if err := balance.VerifyCover(g, res.Retained); err != nil {
			return nil, fmt.Errorf("core: covering constraint violated: %w", err)
		}
		s.Balanced = res
		s.Net.AbsorbSecure(res.SMC)
		s.Net.SendN(fed.ServerID, fed.ServerID, fed.MsgControl, res.ControlMessages, 16)
	}
	s.Trees = buildTrees(g, s.Balanced.Retained, cfg.DisableVirtualNodes)

	// Tree-based GNN trainer setup (§VI-A embedding initialization).
	forest, err := buildForest(g, s.Trees, s.Devices, cfg.Epsilon, !cfg.DisableRowNorm, s.Net)
	if err != nil {
		return nil, err
	}
	s.Forest = forest

	// Shared model.
	modelRng := rng.New(cfg.Seed ^ 0x6d6f64656c)
	model := nn.PaperGNN(cfg.Backbone, g.FeatureDim())
	model.Hidden, model.Heads = cfg.Hidden, cfg.Heads
	enc, err := nn.NewGNN(model, modelRng)
	if err != nil {
		return nil, err
	}
	s.Encoder = enc
	if cfg.Task == Supervised {
		if g.NumClasses < 2 || g.Labels == nil {
			return nil, fmt.Errorf("core: supervised task needs labels and ≥2 classes")
		}
		s.Head = nn.NewLinear("head", enc.EmbeddingDim(), g.NumClasses, modelRng)
	}
	s.opt = nn.NewAdam(cfg.LearningRate)
	s.opt.WeightDecay = nn.PaperWeightDecay

	// Device-parallel training engine: shard the forest and prepare
	// per-shard weight views and RNG streams.
	s.eng = newEngine(s)
	return s, nil
}

// Params returns all trainable parameters of the shared model.
func (s *System) Params() []*nn.Param {
	ps := s.Encoder.Params()
	if s.Head != nil {
		ps = append(ps, s.Head.Params()...)
	}
	return ps
}

// Workloads returns the per-device workload values wl(v).
func (s *System) Workloads() []int {
	return append([]int(nil), s.Balanced.Workloads...)
}
