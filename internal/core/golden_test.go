package core

import (
	"testing"

	"lumos/internal/nn"
)

// Frozen loss traces recorded from the pre-session trainers (PR-3 state,
// commit 7486285) at this exact configuration: engineGraph(seed 9), 5
// epochs, MCMC 20, Shards pinned to 32 (so the partition never depends on
// the host's CPU count), Seed 9. The Objective/Session redesign must keep
// TrainSupervised and TrainUnsupervised bit-identical to these values, for
// both backbones and for every Workers count. Hex float literals make the
// comparison exact.
var goldenTraces = map[string]map[Task][]float64{
	"GCN": {
		Supervised:   {0x1.6ac400b97ca9fp-01, 0x1.65b0bdd60fed4p-01, 0x1.61ea70399ab4cp-01, 0x1.5ebfdb289628ep-01, 0x1.5c32775b17ef7p-01},
		Unsupervised: {0x1.62af888dd2102p-01, 0x1.624215db0aa1ep-01, 0x1.61e6821e2bc4p-01, 0x1.616facc029ae5p-01, 0x1.6132782ef2772p-01},
	},
	"GAT": {
		Supervised:   {0x1.626abb3c19a6dp-01, 0x1.4fa861a38824p-01, 0x1.3def8c6cb2801p-01, 0x1.292c7da3ea07ap-01, 0x1.10289537ec792p-01},
		Unsupervised: {0x1.6257cccc64326p-01, 0x1.61c20b2012e87p-01, 0x1.60fc7766d788p-01, 0x1.60422301eb6b1p-01, 0x1.5f9df9845b45dp-01},
	},
}

// TestTrainersMatchPreSessionGoldens is the redesign's bit-identity gate:
// the session-backed trainers must reproduce the pre-redesign loss traces
// exactly, across both backbones, both tasks, and Workers=1 vs 8, on the
// dense first-layer input (TestFirstLayerViewMatchesDense holds the view
// to it).
func TestTrainersMatchPreSessionGoldens(t *testing.T) {
	g := engineGraph(t, 9)
	for _, bb := range []nn.Backbone{nn.GCN, nn.GAT} {
		want := goldenTraces[bb.String()]
		for _, workers := range []int{1, 8} {
			cfg := Config{Backbone: bb, Epochs: 5, MCMCIterations: 20, Workers: workers, Shards: 32, Seed: 9}
			// The traces predate Forest.XView: the first layer reads the
			// dense input (engine.denseInput), as it did when they were
			// recorded.
			sup, split := supervisedSystem(t, g, cfg)
			sup.eng.denseInput = true
			stats, err := sup.TrainSupervised(split)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, bb.String()+"/supervised vs pre-session golden",
				stats.Losses, want[Supervised])
			uns, es := unsupervisedSystem(t, g, cfg)
			uns.eng.denseInput = true
			if stats, err = uns.TrainUnsupervised(es); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, bb.String()+"/unsupervised vs pre-session golden",
				stats.Losses, want[Unsupervised])
		}
	}
}
