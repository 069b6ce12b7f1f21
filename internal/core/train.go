package core

import (
	"fmt"
	"time"

	"lumos/internal/fed"
	"lumos/internal/graph"
	"lumos/internal/metrics"
	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// TrainStats records a training run.
type TrainStats struct {
	Losses []float64
	// EpochTraffic[i] is the network traffic of epoch i (message counts by
	// kind, per-device message counts).
	EpochTraffic []fed.Traffic
	// AvgCommRoundsPerDevice is the mean number of messages a device
	// initiates per epoch — the Fig. 8a metric.
	AvgCommRoundsPerDevice float64
	// SimEpochTime is the straggler-dominated epoch wall-time estimate
	// from the cost model — the Fig. 8b metric. Its transfer term prices
	// the mean device's bytes, not the busiest device's.
	SimEpochTime time.Duration
	// MeasuredTime is the real CPU time the training loop took.
	MeasuredTime time.Duration
}

// TrainSupervised runs cfg.Epochs of supervised training: every device with
// a training-set vertex contributes its local cross-entropy (labels never
// leave the device); losses and gradients are aggregated synchronously and
// the shared model takes an Adam step (paper §VI-C a). It is a thin loop
// over a Session with a supervised Objective.
func (s *System) TrainSupervised(split *graph.NodeSplit) (*TrainStats, error) {
	sess, err := s.NewSession(NewSupervisedObjective(split))
	if err != nil {
		return nil, err
	}
	return sess.runEpochs()
}

// TrainUnsupervised runs cfg.Epochs of link-prediction training with
// negative sampling (paper §VI-C b, Eq. 33). Positive pairs come from each
// device's retained neighbor set; negatives are sampled by each device
// among vertices it knows are not its neighbors in the full graph. val may
// be nil; when present, its validation edges drive model selection. It is a
// thin loop over a Session with an unsupervised Objective.
func (s *System) TrainUnsupervised(val *graph.EdgeSplit) (*TrainStats, error) {
	sess, err := s.NewSession(NewUnsupervisedObjective(val))
	if err != nil {
		return nil, err
	}
	return sess.runEpochs()
}

// samplePairs builds one step's positive and negative pair lists for the
// active devices (nil = everyone), appending into the caller's buffers so
// steady-state sampling reuses their capacity. Returns the (re-sliced)
// parallel index slices, ±1 targets, and the number of negative fetches for
// traffic accounting. Each device draws from its own private RNG stream, so
// skipping absent devices never perturbs the draws of present ones.
func (s *System) samplePairs(idxU, idxV []int, ys []float64, active []bool) ([]int, []int, []float64, int) {
	negCount := 0
	for u := 0; u < s.G.N; u++ {
		if active != nil && !active[u] {
			continue
		}
		ret := s.Balanced.Retained[u]
		for _, v := range ret {
			idxU = append(idxU, u)
			idxV = append(idxV, v)
			ys = append(ys, 1)
		}
		// Negative sampling, one negative per positive: device u knows its
		// own complete neighbor list (its ego network), so it can locally
		// reject neighbors.
		want := len(ret)
		for drawn, attempts := 0, 0; drawn < want && attempts < 50*want+50; attempts++ {
			w := s.Devices[u].Rng.Intn(s.G.N)
			if w == u || s.Full.HasEdge(u, w) {
				continue
			}
			idxU = append(idxU, u)
			idxV = append(idxV, w)
			ys = append(ys, -1)
			drawn++
			negCount++
		}
	}
	return idxU, idxV, ys, negCount
}

// wireBytes is the single source of the per-message wire sizes (payload
// plus a 16-byte header): embedding shares, gradient/model shares, and
// loss-value shares. Every traffic accounter and the simulator's
// transfer-time estimates derive from these numbers, so they can never
// drift apart.
func (s *System) wireBytes() (embBytes, gradBytes, lossBytes int) {
	return 8*s.Encoder.EmbeddingDim() + 16, 8*nn.CountParams(s.Encoder) + 16, 24
}

// roundMessages lists, once, every message a training round sends: each
// present device v (active nil = every device) pushes the embeddings of its
// neighbor leaves to their owner devices (the POOL exchange), gets their
// pooled embeddings back under link prediction (Eq. 33 needs them), and
// shares its loss and gradient with the server. send gets each message with
// the device v it is charged to. Every training traffic counter reads it.
func (s *System) roundMessages(active []bool, send func(v, from, to int, kind fed.MessageKind, bytes int)) {
	embBytes, gradBytes, lossBytes := s.wireBytes()
	for v, t := range s.Trees {
		if active != nil && !active[v] {
			continue
		}
		for _, u := range t.Retained {
			send(v, v, u, fed.MsgEmbedding, embBytes)
		}
		if s.Cfg.Task == Unsupervised {
			for _, u := range t.Retained {
				send(v, u, v, fed.MsgPooled, embBytes)
			}
		}
		send(v, v, fed.ServerID, fed.MsgLoss, lossBytes)
		send(v, v, fed.ServerID, fed.MsgGradient, gradBytes)
	}
}

// accountEpochTraffic charges the network with a round's messages
// (roundMessages) for the devices active marks.
func (s *System) accountEpochTraffic(active []bool) {
	s.roundMessages(active, func(_, from, to int, kind fed.MessageKind, bytes int) {
		s.Net.Send(from, to, kind, bytes)
	})
}

// DeviceUploadBytes is the bytes each device v moves in one round it
// participates in: the sum of roundMessages' messages charged to v. That is
// its leaf-embedding pushes to the vertices' owners, its loss share and its
// gradient contribution, and under link prediction also the pooled
// embeddings v receives back. This is the per-event transfer size the
// simulator divides by each device's link bandwidth.
func (s *System) DeviceUploadBytes() []int64 {
	out := make([]int64, s.G.N)
	s.roundMessages(nil, func(v, _, _ int, _ fed.MessageKind, bytes int) { out[v] += int64(bytes) })
	return out
}

// ModelBytes is the serialized size of one shared-model update — the
// server→device broadcast a participant downloads after aggregation (and a
// rejoining device must re-download to catch up).
func (s *System) ModelBytes() int64 {
	_, gradBytes, _ := s.wireBytes()
	return int64(gradBytes)
}

// accountNegSampling records the embedding fetches for negative samples,
// charged server to server: the sampling devices are not yet the endpoints.
func (s *System) accountNegSampling(negCount int) {
	embBytes, _, _ := s.wireBytes()
	s.Net.SendN(fed.ServerID, fed.ServerID, fed.MsgNegSample, negCount, embBytes)
}

// finishStats derives the Fig. 8 metrics from the recorded traffic.
func (s *System) finishStats(stats *TrainStats) {
	if len(stats.EpochTraffic) == 0 {
		return
	}
	perDevice := 0.0
	// The largest epoch's mean device bytes. An epoch's traffic holds only
	// training messages: NewSystem charges construction traffic.
	var peakMeanDeviceBytes int64
	for _, t := range stats.EpochTraffic {
		perDevice += t.AvgPerDevice()
		if b := t.TotalBytes() / int64(max(s.G.N, 1)); b > peakMeanDeviceBytes {
			peakMeanDeviceBytes = b
		}
	}
	stats.AvgCommRoundsPerDevice = perDevice / float64(len(stats.EpochTraffic))
	// Serialized rounds per epoch: embedding push, (unsup: pooled return +
	// negative fetch), loss share, gradient aggregate.
	rounds := 3
	if s.Cfg.Task == Unsupervised {
		rounds += 2
	}
	stats.SimEpochTime = fed.DefaultCostModel().EpochTime(s.Balanced.Workloads, rounds, peakMeanDeviceBytes)
}

// Embeddings returns the pooled per-vertex embeddings in evaluation mode.
func (s *System) Embeddings() *tensor.Matrix {
	return s.eng.forward().Data.Clone()
}

// EvaluateAccuracy computes classification accuracy over the masked
// vertices (e.g. the test split) in evaluation mode. It scores exactly the
// Predictions a published snapshot carries, so the classes a serving
// replica answers with reproduce this metric bit for bit.
func (s *System) EvaluateAccuracy(mask []bool) (float64, error) {
	pred, err := s.Predictions()
	if err != nil {
		return 0, fmt.Errorf("core: accuracy evaluation needs a supervised system")
	}
	return metrics.Accuracy(pred, s.G.Labels, mask)
}

// EvaluateAUC scores positive and negative vertex pairs with the embedding
// dot product and returns the ROC-AUC (paper Fig. 4 metric). The scores are
// exactly the PairScores a serving replica answers with.
func (s *System) EvaluateAUC(pos, neg [][2]int) (float64, error) {
	scores, err := s.PairScores(append(append(make([][2]int, 0, len(pos)+len(neg)), pos...), neg...))
	if err != nil {
		return 0, err
	}
	labels := make([]bool, len(scores))
	for i := range pos {
		labels[i] = true
	}
	return metrics.ROCAUC(scores, labels)
}
