package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lumos/internal/fed"
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
// systems. Measured 48 156 B (sim-async-churn, N=449) and 49 068 B
// (gossip-ba-swap, N=180) once party streams were seeded on first draw and
// the LDP estimates went straight into the forest; before, 70 717 and
// 71 668 B. The ceiling is ~+7 %: seeding every party again (~5 kB each)
// or keeping the per-recipient vectors breaks it.
const newSystemBytesPerVertex = 52_000

func TestNewSystemAllocBudgetShardsN(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	for _, c := range constructCases {
		if !c.shardsN {
			continue
		}
		train, full, cfg := c.system(t)
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewSystem(train, full, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := uint64(newSystemBytesPerVertex * full.N); best > budget {
			t.Errorf("%s: NewSystem at Shards=N=%d allocates %d B, budget %d B (%d B per vertex)",
				c.name, full.N, best, budget, newSystemBytesPerVertex)
		}
	}
}

// partySeeded reports whether a device's SMC party has built its stream.
func partySeeded(d *fed.Device) bool {
	return !reflect.ValueOf(d.Party).Elem().FieldByName("rng").IsNil()
}

// A non-secure system never seeds an SMC party stream; a secure one seeds
// the streams of the devices that compared.
func TestNonSecureSystemSeedsNoParty(t *testing.T) {
	g := engineGraph(t, 5)
	for _, secure := range []bool{false, true} {
		sys, err := NewSystem(g, g, Config{MCMCIterations: 10, SecureCompare: secure, Shards: g.N, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		seeded := 0
		for _, d := range sys.Devices {
			if partySeeded(d) {
				seeded++
			}
		}
		if !secure && seeded != 0 {
			t.Errorf("non-secure system seeded %d of %d party streams", seeded, len(sys.Devices))
		}
		if secure && seeded == 0 {
			t.Error("secure system seeded no party stream")
		}
	}
}
