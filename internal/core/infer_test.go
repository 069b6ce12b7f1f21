package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// trainTiny builds and briefly trains a small system for inference tests.
func trainTiny(t *testing.T, task Task, backbone nn.Backbone, seed int64, workers int) (*System, *graph.NodeSplit, *graph.EdgeSplit) {
	t.Helper()
	g := testGraph(t, 48, 180, 3, seed)
	cfg := Config{
		Task: task, Backbone: backbone,
		Epochs: 2, MCMCIterations: 10, Shards: 7, Workers: workers, Seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	switch task {
	case Supervised:
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(g, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainSupervised(split); err != nil {
			t.Fatal(err)
		}
		return sys, split, nil
	default:
		es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(es.TrainGraph, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainUnsupervised(es); err != nil {
			t.Fatal(err)
		}
		return sys, nil, es
	}
}

// TestInferenceSystemBitIdentical: the inference tables a system publishes
// (ServingTables, what a snapshot carries) must equal its evaluation surface
// — Embeddings, Predictions, the predictions EvaluateAccuracy scores, and
// PairScores — bit for bit, for both tasks and both backbones, and must not
// depend on the worker count.
func TestInferenceSystemBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		task     Task
		backbone nn.Backbone
	}{
		{"supervised-gcn", Supervised, nn.GCN},
		{"supervised-gat", Supervised, nn.GAT},
		{"unsupervised-gcn", Unsupervised, nn.GCN},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *tensor.Matrix
			for _, workers := range []int{1, 3} {
				sys, split, es := trainTiny(t, tc.task, tc.backbone, 31, workers)
				emb, preds := sys.ServingTables()
				if !reflect.DeepEqual(emb.Data(), sys.Embeddings().Data()) {
					t.Fatalf("workers=%d: served embeddings differ from Embeddings", workers)
				}
				if first == nil {
					first = emb
				} else if !reflect.DeepEqual(first.Data(), emb.Data()) {
					t.Fatalf("workers=%d: served embeddings depend on the worker count", workers)
				}
				if tc.task == Supervised {
					wp, err := sys.Predictions()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wp, preds) {
						t.Fatalf("workers=%d: served predictions differ from Predictions", workers)
					}
					acc, err := sys.EvaluateAccuracy(split.IsTest)
					if err != nil {
						t.Fatal(err)
					}
					correct, total := 0, 0
					for v, mask := range split.IsTest {
						if !mask {
							continue
						}
						total++
						if preds[v] == sys.G.Labels[v] {
							correct++
						}
					}
					if got := float64(correct) / float64(total); got != acc {
						t.Fatalf("accuracy from served predictions %v != EvaluateAccuracy %v", got, acc)
					}
					continue
				}
				if preds != nil {
					t.Fatal("headless system served predictions")
				}
				pairs := append(append([][2]int(nil), es.Test...), es.TestNeg...)
				ws, err := sys.PairScores(pairs)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					if got := tensor.RowDot(emb, p[0], emb, p[1]); got != ws[i] {
						t.Fatalf("workers=%d: pair %v served score %v, PairScores %v", workers, p, got, ws[i])
					}
				}
			}
		})
	}
}

// TestInferenceSystemRepeatedForwards: evaluation forwards must be
// repeatable on the recycled tapes (Capture computes the serving tables
// between training steps).
func TestInferenceSystemRepeatedForwards(t *testing.T) {
	sys, _, _ := trainTiny(t, Supervised, nn.GCN, 33, 2)
	emb, preds := sys.ServingTables()
	for i := 0; i < 3; i++ {
		e, p := sys.ServingTables()
		if !reflect.DeepEqual(emb.Data(), e.Data()) || !reflect.DeepEqual(preds, p) {
			t.Fatalf("forward %d drifted", i+2)
		}
	}
}

// TestForestStateIsDeepCopy: the state a snapshot captures from the forest
// (the serving tables) must be the caller's own: mutating it must not reach
// the live system, and later forwards of the system must not reach it.
func TestForestStateIsDeepCopy(t *testing.T) {
	sys, _, _ := trainTiny(t, Supervised, nn.GCN, 37, 2)
	before := sys.Embeddings()
	beforePreds, err := sys.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	emb, preds := sys.ServingTables()
	emb.Zero()
	preds[0] = -1
	afterPreds, err := sys.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Data(), sys.Embeddings().Data()) || !reflect.DeepEqual(beforePreds, afterPreds) {
		t.Fatal("mutating the captured state changed the live system")
	}
	for i, x := range emb.Data() {
		if x != 0 {
			t.Fatalf("a later forward rewrote captured embedding entry %d", i)
		}
	}
	if preds[0] != -1 {
		t.Fatal("a later forward rewrote the captured predictions")
	}
}
