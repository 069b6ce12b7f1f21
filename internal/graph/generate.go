package graph

import (
	"fmt"
	"math"
	"math/rand"

	"lumos/internal/rng"
	"lumos/internal/tensor"
)

// Synthetic social-graph generator.
//
// The paper evaluates on two crawled social networks (Facebook page-page,
// LastFM Asia). Those crawls are not available offline, so we generate
// degree-corrected planted-partition graphs that reproduce the statistics
// Lumos's mechanisms react to:
//
//   - heavy-tailed (power-law) degree distributions → degree heterogeneity,
//     the straggler/workload-imbalance problem of Definition 3;
//   - community structure correlated with labels → learnable classification
//     and link-prediction signal;
//   - sparse binary features correlated with labels → the bag-of-words-like
//     features the one-bit LDP encoder operates on.
//
// Edges are drawn Chung-Lu style: endpoints are sampled proportionally to
// per-vertex power-law weights, and with probability Homophily the second
// endpoint is resampled from the first endpoint's class.

// featureNoise is the Bernoulli background rate of every feature bit.
const featureNoise = 0.03

// GenConfig parameterizes the generator.
type GenConfig struct {
	Name    string
	N       int // number of vertices
	M       int // target number of undirected edges
	Classes int
	// FeatureDim is the binary feature dimensionality.
	FeatureDim int
	// PowerLaw is the exponent α of the Pareto degree-weight distribution;
	// real social networks typically have α in (2, 3].
	PowerLaw float64
	// Homophily is the probability that an edge endpoint is resampled from
	// within the same class, controlling label signal in the topology.
	Homophily float64
	// FeatureSignal is the Bernoulli rate of class-indicative feature bits
	// (every bit also fires at featureNoise).
	FeatureSignal float64
	// ActivePerClass is how many feature dimensions are indicative of each
	// class (defaults to FeatureDim/Classes, capped).
	ActivePerClass int
	// LabelNoise is the fraction of vertices whose *observed* label is
	// flipped to a uniformly random other class after edges and features
	// are generated. It models the intrinsic Bayes error of real label
	// taxonomies (page categories, nationalities) and sets a realistic
	// accuracy ceiling for every system, centralized included.
	LabelNoise float64
	Seed       int64
}

// Validate fills defaults and sanity-checks the configuration.
func (c *GenConfig) Validate() error {
	if c.N < 4 {
		return fmt.Errorf("graph: generator needs N ≥ 4, got %d", c.N)
	}
	maxM := c.N * (c.N - 1) / 2
	if c.M <= 0 || c.M > maxM {
		return fmt.Errorf("graph: M=%d outside (0, %d]", c.M, maxM)
	}
	if c.Classes < 2 {
		return fmt.Errorf("graph: need ≥2 classes, got %d", c.Classes)
	}
	if c.FeatureDim < c.Classes {
		return fmt.Errorf("graph: FeatureDim=%d < Classes=%d", c.FeatureDim, c.Classes)
	}
	if c.PowerLaw == 0 {
		c.PowerLaw = 2.5
	}
	if c.PowerLaw <= 1 {
		return fmt.Errorf("graph: power-law exponent must exceed 1, got %v", c.PowerLaw)
	}
	if c.Homophily == 0 {
		c.Homophily = 0.8
	}
	if c.Homophily < 0 || c.Homophily > 1 {
		return fmt.Errorf("graph: homophily %v outside [0,1]", c.Homophily)
	}
	if c.FeatureSignal == 0 {
		c.FeatureSignal = 0.35
	}
	if c.ActivePerClass == 0 {
		c.ActivePerClass = c.FeatureDim / c.Classes
		if c.ActivePerClass > 48 {
			c.ActivePerClass = 48
		}
		if c.ActivePerClass < 1 {
			c.ActivePerClass = 1
		}
	}
	if c.LabelNoise < 0 || c.LabelNoise >= 1 {
		return fmt.Errorf("graph: label noise %v outside [0,1)", c.LabelNoise)
	}
	return nil
}

// Generate produces a synthetic attributed social graph per cfg.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rng.New(cfg.Seed)

	// Labels: balanced classes, shuffled.
	labels := make([]int, cfg.N)
	for i := range labels {
		labels[i] = i % cfg.Classes
	}
	rng.Shuffle(cfg.N, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })

	byClass := make([][]int, cfg.Classes)
	for v, y := range labels {
		byClass[y] = append(byClass[y], v)
	}

	// Power-law degree weights: Pareto with x_min=1, exponent α.
	weights := make([]float64, cfg.N)
	for i := range weights {
		u := rng.Float64()
		weights[i] = math.Pow(1-u, -1/(cfg.PowerLaw-1))
		// Cap to keep a single vertex from absorbing the whole edge budget.
		if cap := float64(cfg.N) / 10; weights[i] > cap {
			weights[i] = cap
		}
	}
	global := newWeightedSampler(weights)
	perClass := make([]*weightedSampler, cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		w := make([]float64, len(byClass[c]))
		for i, v := range byClass[c] {
			w[i] = weights[v]
		}
		perClass[c] = newWeightedSampler(w)
	}

	seen := make(map[[2]int]bool, cfg.M)
	edges := make([][2]int, 0, cfg.M)
	attempts := 0
	maxAttempts := 50 * cfg.M
	for len(edges) < cfg.M && attempts < maxAttempts {
		attempts++
		u := global.sample(rng)
		var v int
		if rng.Float64() < cfg.Homophily {
			c := labels[u]
			v = byClass[c][perClass[c].sample(rng)]
		} else {
			v = global.sample(rng)
		}
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, k)
	}
	if len(edges) < cfg.M {
		// Dense corner of the config space: fill remaining edges uniformly.
		for len(edges) < cfg.M {
			u, v := rng.Intn(cfg.N), rng.Intn(cfg.N)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := [2]int{u, v}
			if seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, k)
		}
	}

	// Features: class-indicative dimensions fire at FeatureSignal, all
	// dimensions fire at featureNoise.
	active := make([][]int, cfg.Classes)
	perm := rng.Perm(cfg.FeatureDim)
	pos := 0
	for c := 0; c < cfg.Classes; c++ {
		for k := 0; k < cfg.ActivePerClass; k++ {
			active[c] = append(active[c], perm[pos%cfg.FeatureDim])
			pos++
		}
	}
	feats := tensor.New(cfg.N, cfg.FeatureDim)
	for v := 0; v < cfg.N; v++ {
		row := feats.Row(v)
		for d := range row {
			if rng.Float64() < featureNoise {
				row[d] = 1
			}
		}
		for _, d := range active[labels[v]] {
			if rng.Float64() < cfg.FeatureSignal {
				row[d] = 1
			}
		}
	}

	// Observed-label noise: flip after topology and features are fixed so
	// the flipped vertices keep their latent class's connectivity/features.
	if cfg.LabelNoise > 0 {
		for v := range labels {
			if rng.Float64() < cfg.LabelNoise {
				o := rng.Intn(cfg.Classes - 1)
				if o >= labels[v] {
					o++
				}
				labels[v] = o
			}
		}
	}

	g, err := NewFromEdges(cfg.N, edges, feats, labels, cfg.Classes)
	if err != nil {
		return nil, err
	}
	g.Name = cfg.Name
	return g, nil
}

// weightedSampler draws indices proportionally to fixed non-negative
// weights using binary search over the cumulative distribution.
type weightedSampler struct {
	cum   []float64
	total float64
}

func newWeightedSampler(w []float64) *weightedSampler {
	s := &weightedSampler{cum: make([]float64, len(w))}
	acc := 0.0
	for i, x := range w {
		if x < 0 {
			panic(fmt.Sprintf("graph: negative sampling weight %v at %d", x, i))
		}
		acc += x
		s.cum[i] = acc
	}
	s.total = acc
	return s
}

func (s *weightedSampler) sample(rng *rand.Rand) int {
	if s.total <= 0 {
		return rng.Intn(len(s.cum))
	}
	x := rng.Float64() * s.total
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
