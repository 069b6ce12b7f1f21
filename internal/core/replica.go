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
// simulator keeps one replica per device, moves it into the System to run
// that device's local step, moves the result out into another replica, and
// mixes neighbors' replicas with MixReplicas.
//
// A replica never shares a buffer with live training state or with another
// replica, and each method keeps it that way. SwapReplica moves: the
// system's weight arrays and Adam moments trade places with the replica's,
// so the replica afterwards holds what the system held (when the system held
// another replica's state a moment ago, that is scratch for the caller to
// overwrite). LoadReplica and StoreReplica copy, for a replica that must
// survive being installed (the consensus average, the best-validation
// model). Clone copies weights and moments, and MixReplicas writes into the
// destination's own weight and moment buffers. So replicas can be held
// across rounds, cloned for best-snapshot tracking, and mixed freely, and a
// steady-state swap, store, load or mix allocates nothing.
type Replica struct {
	weights []*tensor.Matrix
	opt     *nn.OptState
	// mixW and mixOpt are MixReplicas' scratch when this replica is the
	// destination: the sources' weights and optimizer states, in source
	// order.
	mixW   [][]*tensor.Matrix
	mixOpt []*nn.OptState
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

// SwapReplica exchanges the system's model with r's without copying: each
// parameter matrix trades its backing array with r's weight of the same
// shape (the arrays move, not the *Matrix pointers, which the shard views
// share), and the optimizer's step count and Adam moments trade places with
// r's. Afterwards the system trains exactly as after LoadReplica(r), and r
// holds exactly what StoreReplica would have copied into it; calling it
// twice restores both. A replica of the wrong shape is refused before
// anything moves.
func (s *System) SwapReplica(r *Replica) error {
	params := s.eng.allParams
	if len(r.weights) != len(params) {
		return fmt.Errorf("core: replica has %d tensors for %d params", len(r.weights), len(params))
	}
	for i, p := range params {
		pr, pc := p.V.Data.Dims()
		if rr, rc := r.weights[i].Dims(); rr != pr || rc != pc {
			return fmt.Errorf("core: replica tensor %d is %dx%d, param %s is %dx%d", i, rr, rc, p.Name, pr, pc)
		}
	}
	for i, p := range params {
		p.V.Data.SwapData(r.weights[i])
	}
	s.opt.SwapState(params, r.opt)
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

// MixReplicas overwrites dst with the weighted sum Σ ws[i]·srcs[i] — the
// neighbor-averaging step of gossip training — weights and Adam moments
// alike, through nn.MixModelsInto into dst's own buffers. Every sum runs in
// slice order, so callers control the floating-point reduction order exactly
// (the determinism contract: pass sources in a frozen order, e.g. self
// first, then neighbors ascending). Without moment averaging, per-device
// sign-normalized steps cancel in the consensus mean and decentralized
// training stalls; the step count adopts srcs[0]'s, by convention the
// device's own post-step half. dst must not appear in srcs: its buffers are
// overwritten while sources are still being read.
func MixReplicas(dst *Replica, srcs []*Replica, ws []float64) error {
	if cap(dst.mixW) < len(srcs) {
		dst.mixW, dst.mixOpt = make([][]*tensor.Matrix, 0, len(srcs)), make([]*nn.OptState, 0, len(srcs))
	}
	dst.mixW, dst.mixOpt = dst.mixW[:0], dst.mixOpt[:0]
	for _, s := range srcs {
		dst.mixW = append(dst.mixW, s.weights)
		dst.mixOpt = append(dst.mixOpt, s.opt)
	}
	return nn.MixModelsInto(dst.weights, dst.opt, dst.mixW, dst.mixOpt, ws)
}
