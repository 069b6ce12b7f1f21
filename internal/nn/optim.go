package nn

import (
	"fmt"
	"math"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) with optional decoupled
// weight decay. The paper trains every model with Adam at lr = 0.01.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*autodiff.Value]*tensor.Matrix
	v map[*autodiff.Value]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*autodiff.Value]*tensor.Matrix),
		v:     make(map[*autodiff.Value]*tensor.Matrix),
	}
}

// Step applies one update to every parameter that has a gradient, then
// leaves gradients untouched (call ZeroGrad separately).
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		g := p.V.Grad
		if g == nil {
			continue
		}
		w := p.V.Data
		m, ok := o.m[p.V]
		if !ok {
			m = tensor.New(w.Rows(), w.Cols())
			o.m[p.V] = m
		}
		v, ok := o.v[p.V]
		if !ok {
			v = tensor.New(w.Rows(), w.Cols())
			o.v[p.V] = v
		}
		wd, gd, md, vd := w.Data(), g.Data(), m.Data(), v.Data()
		for i := range wd {
			gi := gd[i]
			if o.WeightDecay != 0 {
				gi += o.WeightDecay * wd[i]
			}
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*gi
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*gi*gi
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			wd[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// OptState is a detached copy of an Adam optimizer's full state — step
// count plus first/second moments — over a fixed parameter list. It is what
// lets one optimizer instance serve many model replicas (gossip training
// keeps one per device): capture after stepping one replica, restore before
// stepping the next. Entries are aligned with the parameter slice passed to
// CaptureState; a nil moment means the parameter had never been stepped.
type OptState struct {
	t    int
	m, v []*tensor.Matrix
}

// StepCount returns the captured update count.
func (st *OptState) StepCount() int { return st.t }

// Moments returns the first and second moments captured for parameter i,
// nil where that parameter had never been stepped. They are the state's own
// matrices: read them, do not modify them.
func (st *OptState) Moments(i int) (m, v *tensor.Matrix) { return st.m[i], st.v[i] }

// Clone deep-copies the state.
func (st *OptState) Clone() *OptState {
	return &OptState{t: st.t, m: cloneMoments(st.m), v: cloneMoments(st.v)}
}

func cloneMoments(ms []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(ms))
	for i, m := range ms {
		if m != nil {
			out[i] = m.Clone()
		}
	}
	return out
}

// CaptureState deep-copies the optimizer's state for the given parameters.
// The copy is independent: later Steps do not mutate it.
func (o *Adam) CaptureState(params []*Param) *OptState {
	st := &OptState{}
	o.CaptureStateInto(st, params)
	return st
}

// CaptureStateInto is CaptureState into st's own buffers: a moment st
// already holds is overwritten in place, a missing one is cloned, and one
// the optimizer has not created becomes nil. Capturing into a state sized
// for the same parameters allocates nothing once its moments exist.
func (o *Adam) CaptureStateInto(st *OptState, params []*Param) {
	st.t = o.t
	st.m = captureMoments(st.m, o.m, params)
	st.v = captureMoments(st.v, o.v, params)
}

func captureMoments(dst []*tensor.Matrix, live map[*autodiff.Value]*tensor.Matrix, params []*Param) []*tensor.Matrix {
	if len(dst) != len(params) {
		dst = make([]*tensor.Matrix, len(params))
	}
	for i, p := range params {
		m, ok := live[p.V]
		switch {
		case !ok:
			dst[i] = nil
		case dst[i] == nil:
			dst[i] = m.Clone()
		default:
			dst[i].CopyFrom(m)
		}
	}
	return dst
}

// RestoreState overwrites the optimizer's state for the given parameters
// with a captured copy. params must be the same list (same order, same
// length) the state was captured over. The state is copied in, not aliased,
// so one OptState can be restored any number of times; a nil captured
// moment clears the live one (the parameter becomes never-stepped again).
func (o *Adam) RestoreState(params []*Param, st *OptState) {
	if len(params) != len(st.m) {
		panic(fmt.Sprintf("nn: optimizer state captured over %d params, restoring %d", len(st.m), len(params)))
	}
	o.t = st.t
	for i, p := range params {
		restoreMoment(o.m, p.V, st.m[i])
		restoreMoment(o.v, p.V, st.v[i])
	}
}

// MixOptStates returns the weighted sum of captured optimizer states — the
// moment half of decentralized neighbor averaging. Mixing moments alongside
// weights is what makes gossip-averaged Adam converge: each device's first
// moment then carries its neighborhood's averaged gradient signal (per-device
// gradient noise cancels in the mean), so local steps pull toward the
// consensus descent direction instead of each device's own noise. Step
// counts don't average meaningfully; the result adopts srcs[0]'s (by
// convention the device's own). A nil captured moment is a zero matrix; the
// result's moment is nil only where every source's is.
func MixOptStates(srcs []*OptState, ws []float64) (*OptState, error) {
	st := &OptState{}
	if err := MixOptStatesInto(st, srcs, ws); err != nil {
		return nil, err
	}
	return st, nil
}

// MixOptStatesInto is MixOptStates into dst's own moment buffers, which it
// overwrites (allocating only moments dst lacks). The arithmetic is the
// same: each moment starts from +0 and accumulates ws[j]·srcs[j] in source
// slice order, skipping nil moments. dst must not be one of srcs.
func MixOptStatesInto(dst *OptState, srcs []*OptState, ws []float64) error {
	if len(srcs) == 0 || len(srcs) != len(ws) {
		return fmt.Errorf("nn: mixing %d optimizer states with %d weights", len(srcs), len(ws))
	}
	k := len(srcs[0].m)
	for _, s := range srcs {
		if s == dst {
			return fmt.Errorf("nn: mix destination aliases a source")
		}
		if len(s.m) != k || len(s.v) != k {
			return fmt.Errorf("nn: mixing optimizer states of different shapes")
		}
	}
	dst.t = srcs[0].t
	dst.m = mixMoments(dst.m, srcs, ws, func(s *OptState) []*tensor.Matrix { return s.m }, k)
	dst.v = mixMoments(dst.v, srcs, ws, func(s *OptState) []*tensor.Matrix { return s.v }, k)
	return nil
}

// mixMoments accumulates one moment slice's weighted sum into out, in source
// slice order — the same frozen reduction order the weight mix uses.
func mixMoments(out []*tensor.Matrix, srcs []*OptState, ws []float64, pick func(*OptState) []*tensor.Matrix, k int) []*tensor.Matrix {
	if len(out) != k {
		out = make([]*tensor.Matrix, k)
	}
	for i := range out {
		acc, started := out[i], false
		for j, s := range srcs {
			mj := pick(s)[i]
			if mj == nil {
				continue
			}
			if !started {
				if acc == nil {
					acc = tensor.New(mj.Rows(), mj.Cols())
				} else {
					acc.Zero()
				}
				started = true
			}
			tensor.AddScaledInPlace(acc, ws[j], mj)
		}
		if !started {
			acc = nil
		}
		out[i] = acc
	}
	return out
}

func restoreMoment(dst map[*autodiff.Value]*tensor.Matrix, key *autodiff.Value, src *tensor.Matrix) {
	if src == nil {
		delete(dst, key)
		return
	}
	if cur, ok := dst[key]; ok {
		cur.CopyFrom(src)
		return
	}
	dst[key] = src.Clone()
}

// Reset clears optimizer state (moments and step count).
func (o *Adam) Reset() {
	o.t = 0
	o.m = make(map[*autodiff.Value]*tensor.Matrix)
	o.v = make(map[*autodiff.Value]*tensor.Matrix)
}

// StepCount returns the number of updates applied so far.
func (o *Adam) StepCount() int { return o.t }

// SGD is a plain stochastic gradient descent optimizer, kept as a simple
// reference and for ablation against Adam.
type SGD struct {
	LR       float64
	Momentum float64

	vel map[*autodiff.Value]*tensor.Matrix
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*autodiff.Value]*tensor.Matrix)}
}

// Step applies one SGD (with momentum) update.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.V.Grad
		if g == nil {
			continue
		}
		w := p.V.Data
		if o.Momentum == 0 {
			tensor.AddScaledInPlace(w, -o.LR, g)
			continue
		}
		v, ok := o.vel[p.V]
		if !ok {
			v = tensor.New(w.Rows(), w.Cols())
			o.vel[p.V] = v
		}
		vd, gd, wd := v.Data(), g.Data(), w.Data()
		for i := range wd {
			vd[i] = o.Momentum*vd[i] + gd[i]
			wd[i] -= o.LR * vd[i]
		}
	}
}

// Optimizer is the interface shared by Adam and SGD.
type Optimizer interface {
	Step(params []*Param)
}

var (
	_ Optimizer = (*Adam)(nil)
	_ Optimizer = (*SGD)(nil)
)
