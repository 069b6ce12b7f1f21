package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// constructCase is one benchmark workload's NewSystem configuration (bench/
// workloads.go at data seed 7): its graph, its task split and its tree
// constructor settings. Shards=N marks the simulator workloads.
type constructCase struct {
	name    string
	dataset string
	scale   float64
	task    Task
	bb      nn.Backbone
	secure  bool
	mcmc    int
	shardsN bool
}

var constructCases = []constructCase{
	{"epoch-gcn-secure", "facebook", 0.025, Supervised, nn.GCN, true, 100, false},
	{"epoch-gat-linkpred", "lastfm", 0.04, Unsupervised, nn.GAT, false, 300, false},
	{"sim-async-churn", "facebook", 0.02, Supervised, nn.GCN, false, 150, true},
	{"gossip-ba-swap", "facebook", 0.008, Supervised, nn.GCN, false, 150, true},
}

// system generates the case's graph and split and returns its train graph,
// full graph and config.
func (c constructCase) system(t testing.TB) (*graph.Graph, *graph.Graph, Config) {
	t.Helper()
	const seed = 7
	g, err := graph.LoadDataset(c.dataset, c.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := SplitForTask(g, c.task, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Task: c.task, Backbone: c.bb, SecureCompare: c.secure, MCMCIterations: c.mcmc,
		Workers: 1, Seed: seed, Epochs: 1,
	}
	if c.shardsN {
		cfg.Shards = g.N
	}
	return train, g, cfg
}

// forestXGolden is an FNV-64a hash of each case's Forest.X (shape, then every
// element's bits in row-major order), recorded while buildForest still
// encoded every recipient's vector, recovered it into a per-device map and
// copied it into the forest.
var forestXGolden = map[string]uint64{
	"epoch-gcn-secure":   0x437d659da4ad97ec,
	"epoch-gat-linkpred": 0xe822d1a662eac372,
	"sim-async-churn":    0x10ccc32a822c9e6a,
	"gossip-ba-swap":     0x81c40a60e8d2aa47,
}

func hashMatrix(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	word(uint64(m.Rows()))
	word(uint64(m.Cols()))
	for _, v := range m.Data() {
		word(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestForestXGolden pins the LDP embedding initialization bit for bit on the
// four benchmark workloads' systems.
func TestForestXGolden(t *testing.T) {
	for _, c := range constructCases {
		train, full, cfg := c.system(t)
		sys, err := NewSystem(train, full, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hashMatrix(sys.Forest.X), forestXGolden[c.name]; got != want {
			t.Errorf("%s: Forest.X hash %#x, golden %#x", c.name, got, want)
		}
	}
}

// newSystemBytesPerVertex is the ceiling on the bytes one NewSystem call
// allocates per vertex at Shards=N, on the two simulator workloads'
// systems. Measured 47 589 B (sim-async-churn, N=449) and 47 669 B
// (gossip-ba-swap, N=180) once each SMC party held a 16-byte PCG and the
// balancer kept its sets in sorted slices (49 136 and 50 105 B before; 70 717
// and 71 668 B before the LDP estimates went straight into the forest). The
// ceiling is ~+7 %: a ~5 kB register per party, or the per-recipient
// vectors, breaks it.
const newSystemBytesPerVertex = 51_000

// newSystemBytes returns the fewest bytes one of three NewSystem calls on
// the case's system allocates, and the system's vertex count.
func newSystemBytes(t *testing.T, c constructCase) (best uint64, n int) {
	t.Helper()
	train, full, cfg := c.system(t)
	best = math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewSystem(train, full, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best, full.N
}

func TestNewSystemAllocBudgetShardsN(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, c := range constructCases {
		if !c.shardsN {
			continue
		}
		best, n := newSystemBytes(t, c)
		if budget := uint64(newSystemBytesPerVertex * n); best > budget {
			t.Errorf("%s: NewSystem at Shards=N=%d allocates %d B, budget %d B (%d B per vertex)",
				c.name, n, best, budget, newSystemBytesPerVertex)
		}
	}
}

// secureNewSystemBytesPerVertex is the ceiling on the bytes one NewSystem
// call allocates per vertex on the epoch-gcn-secure system (N=562, every
// comparison under the secure comparator). Measured 46 065 B once each
// party held a PCG by value and the balancer kept its sets in sorted slices;
// before, 52 712 B. The ceiling is ~+7 %: a party that seeds a ~5 kB
// register on its first comparison, as parties once did, breaks it.
const secureNewSystemBytesPerVertex = 49_300

func TestNewSystemAllocBudgetSecure(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	c := constructCases[0]
	if !c.secure {
		t.Fatalf("%s is not a secure case", c.name)
	}
	best, n := newSystemBytes(t, c)
	if budget := uint64(secureNewSystemBytesPerVertex * n); best > budget {
		t.Errorf("%s: NewSystem at N=%d allocates %d B, budget %d B (%d B per vertex)",
			c.name, n, best, budget, secureNewSystemBytesPerVertex)
	}
}
