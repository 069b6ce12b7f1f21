package baselines

import (
	"math/rand"
	"runtime"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
)

// baselineEpochBudget is the steady-state cost ceiling of one
// Centralized.TrainSupervised call with Epochs: 1 on blGraph(1) (N=140): one
// training epoch, one validation forward, one snapshot and its restore.
type baselineEpochBudget struct {
	allocs, bytes float64
}

// baselineEpochBudgets are the measured costs + 25 %: GCN 36 allocs / 7.8 kB,
// GAT 80 allocs / 50 kB. Before the runner recorded on a reused tape the same
// call cost 160 allocs / 475 kB (GCN) and 1000 allocs / 3.79 MB (GAT).
var baselineEpochBudgets = map[nn.Backbone]baselineEpochBudget{
	nn.GCN: {allocs: 45, bytes: 9800},
	nn.GAT: {allocs: 100, bytes: 62800},
}

// TestBaselineEpochAllocBudget guards the runner's tape: once it is warm, an
// epoch recycles every op output, gradient and scratch buffer, so what is
// left is the call's own bookkeeping (the weight vector, the loss trace, the
// validation predictions and the snapshot).
func TestBaselineEpochAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	g := blGraph(t, 1)
	split, _ := graph.SplitNodes(g, 0.5, 0.25, rand.New(rand.NewSource(1)))
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		c, err := NewCentralized(g, ModelConfig{Backbone: bb, Epochs: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c.TrainSupervised(split) // warm the tape and the gradient buffers
		allocs, bytes := allocsPerCall(10, func() { c.TrainSupervised(split) })
		t.Logf("%v: %.0f allocs, %.0f B per epoch", bb, allocs, bytes)
		budget := baselineEpochBudgets[bb]
		if allocs > budget.allocs || bytes > budget.bytes {
			t.Errorf("%v: a steady-state baseline epoch costs %.0f allocs / %.0f B, budget %.0f / %.0f",
				bb, allocs, bytes, budget.allocs, budget.bytes)
		}
	}
}

// allocsPerCall is testing.AllocsPerRun that also reports the bytes
// allocated per call.
func allocsPerCall(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
