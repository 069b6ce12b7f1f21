package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// A Replica is one device's private copy of the shared model: every
// trainable weight plus the device's own Adam state (step count and
// moments). Replicas are the multi-model substrate behind decentralized
// (gossip) training, where no central aggregator holds "the" model — the
// simulator keeps one replica per device, loads it into the System to run
// that device's local step, stores the result back, and mixes neighbors'
// replicas with MixReplicas.
//
// A replica owns its buffers and never aliases live training state or
// another replica: Load and Store copy in both directions, Clone copies
// weights and moments, and MixReplicas writes into the destination's own
// weight and moment buffers. So replicas can be held across rounds, cloned
// for best-snapshot tracking, and mixed freely, and a steady-state store,
// load or mix allocates nothing.
type Replica struct {
	weights []*tensor.Matrix
	opt     *nn.OptState
	// mixSrcs is MixReplicas' scratch when this replica is the destination:
	// the sources' optimizer states, in source order.
	mixSrcs []*nn.OptState
}

// NewReplica captures the system's current weights and optimizer state as a
// fresh replica — the seed state every device starts gossip training from.
func (s *System) NewReplica() *Replica {
	return &Replica{
		weights: nn.Snapshot(s),
		opt:     s.opt.CaptureState(s.eng.allParams),
	}
}

// LoadReplica installs the replica into the system: weights are copied into
// the model parameters and the optimizer's state becomes the replica's.
// After this, Session.StepRound trains exactly as if the system had always
// held this replica.
func (s *System) LoadReplica(r *Replica) error {
	params := s.eng.allParams
	if len(r.weights) != len(params) {
		return fmt.Errorf("core: replica has %d tensors for %d params", len(r.weights), len(params))
	}
	for i, p := range params {
		p.V.Data.CopyFrom(r.weights[i])
	}
	s.opt.RestoreState(params, r.opt)
	return nil
}

// StoreReplica copies the system's current weights and optimizer state back
// into the replica's own buffers.
func (s *System) StoreReplica(r *Replica) error {
	params := s.eng.allParams
	if len(r.weights) != len(params) {
		return fmt.Errorf("core: replica has %d tensors for %d params", len(r.weights), len(params))
	}
	for i, p := range params {
		r.weights[i].CopyFrom(p.V.Data)
	}
	s.opt.CaptureStateInto(r.opt, params)
	return nil
}

// Clone deep-copies the replica — used for best-validation snapshot
// tracking across gossip rounds, and to seed every device's replica.
func (r *Replica) Clone() *Replica {
	w := make([]*tensor.Matrix, len(r.weights))
	for i, m := range r.weights {
		w[i] = m.Clone()
	}
	return &Replica{weights: w, opt: r.opt.Clone()}
}

// Fingerprint hashes the replica's exact bits with FNV-1a: the optimizer
// step count, every weight and every Adam moment, a nil moment hashing as a
// marker no matrix produces. Equal fingerprints mean bit-identical replicas
// for every practical purpose, which is how a golden test pins a whole model
// state in one number.
func (r *Replica) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	mat := func(m *tensor.Matrix) {
		if m == nil {
			word(math.MaxUint64)
			return
		}
		word(uint64(m.Rows())<<32 | uint64(m.Cols()))
		for _, x := range m.Data() {
			word(math.Float64bits(x))
		}
	}
	word(uint64(r.opt.StepCount()))
	for i, w := range r.weights {
		m, v := r.opt.Moments(i)
		mat(w)
		mat(m)
		mat(v)
	}
	return h.Sum64()
}

// MixReplicas overwrites dst's weights with the weighted sum
// Σ ws[i]·srcs[i] — the neighbor-averaging step of gossip training. The sum
// runs in slice order, so callers control the floating-point reduction
// order exactly (the determinism contract: pass sources in a frozen order,
// e.g. self first, then neighbors ascending). Adam's moments mix with the
// same weights into dst's own moment buffers (nn.MixOptStatesInto) — without
// moment averaging, per-device sign-normalized steps cancel in the consensus
// mean and decentralized training stalls; the step count adopts srcs[0]'s,
// by convention the device's own post-step half. dst must not appear in
// srcs: its buffers are overwritten while sources are still being read.
func MixReplicas(dst *Replica, srcs []*Replica, ws []float64) error {
	if len(srcs) == 0 || len(srcs) != len(ws) {
		return fmt.Errorf("core: mixing %d replicas with %d weights", len(srcs), len(ws))
	}
	for _, s := range srcs {
		if s == dst {
			return fmt.Errorf("core: mix destination aliases a source")
		}
		if len(s.weights) != len(dst.weights) {
			return fmt.Errorf("core: mixing replicas of different shapes")
		}
	}
	for i, out := range dst.weights {
		od := out.Data()
		s0 := srcs[0].weights[i].Data()
		w0 := ws[0]
		for k := range od {
			od[k] = w0 * s0[k]
		}
		for j := 1; j < len(srcs); j++ {
			sd := srcs[j].weights[i].Data()
			wj := ws[j]
			for k := range od {
				od[k] += wj * sd[k]
			}
		}
	}
	dst.mixSrcs = dst.mixSrcs[:0]
	for _, s := range srcs {
		dst.mixSrcs = append(dst.mixSrcs, s.opt)
	}
	return nn.MixOptStatesInto(dst.opt, dst.mixSrcs, ws)
}
