package nn

import (
	"math"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// quadratic records loss = Σ (w−target)² over a 1×n parameter on a fresh
// tape.
func quadratic(w *Param, target float64) *autodiff.Value {
	diff := autodiff.AddRow(autodiff.NewTape().Const(tensor.Full(1, w.V.Data.Cols(), -target)), w.V)
	return autodiff.SumSquares(diff)
}

type singleParam struct{ p *Param }

func (s singleParam) Params() []*Param { return []*Param{s.p} }

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{5, -3, 0.5}}))}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		loss := quadratic(w, 2)
		ZeroGrad(singleParam{w})
		loss.Backward()
		opt.Step([]*Param{w})
	}
	for _, v := range w.V.Data.Data() {
		if math.Abs(v-2) > 1e-3 {
			t.Fatalf("adam failed to converge: %v", w.V.Data)
		}
	}
	if opt.t != 500 {
		t.Fatalf("step count = %d", opt.t)
	}
}

func TestAdamSkipsParamsWithoutGrad(t *testing.T) {
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{1}}))}
	opt := NewAdam(0.1)
	opt.Step([]*Param{w}) // no gradient: must be a no-op
	if w.V.Data.At(0, 0) != 1 {
		t.Fatal("adam updated a gradient-less parameter")
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	// With zero data gradient but weight decay, weights decay toward 0.
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{4}}))}
	opt := NewAdam(0.05)
	opt.WeightDecay = 0.5
	for i := 0; i < 200; i++ {
		// A loss independent of w would give no grad; instead use a tiny
		// quadratic around the current point (its gradient scaled by 1e-9)
		// to trigger updates and let decay dominate.
		loss := quadratic(w, 0)
		ZeroGrad(singleParam{w})
		loss.BackwardWithGradient(tensor.Full(1, 1, 1e-9))
		opt.Step([]*Param{w})
	}
	if math.Abs(w.V.Data.At(0, 0)) > 1 {
		t.Fatalf("weight decay failed: w = %v", w.V.Data.At(0, 0))
	}
}

func TestSGDConverges(t *testing.T) {
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{5}}))}
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		loss := quadratic(w, -1)
		ZeroGrad(singleParam{w})
		loss.Backward()
		opt.Step([]*Param{w})
	}
	if math.Abs(w.V.Data.At(0, 0)+1) > 1e-3 {
		t.Fatalf("sgd failed to converge: %v", w.V.Data.At(0, 0))
	}
}

func TestSGDNoMomentumPath(t *testing.T) {
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{2}}))}
	opt := NewSGD(0.25, 0)
	loss := quadratic(w, 0) // grad = 2w = 4
	loss.Backward()
	opt.Step([]*Param{w})
	if math.Abs(w.V.Data.At(0, 0)-1) > 1e-12 {
		t.Fatalf("sgd step = %v, want 1", w.V.Data.At(0, 0))
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// Adam's bias correction makes the first step ≈ lr regardless of
	// gradient scale.
	for _, scale := range []float64{1e-3, 1, 1e3} {
		w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{scale}}))}
		opt := NewAdam(0.1)
		loss := quadratic(w, 0)
		loss.Backward()
		opt.Step([]*Param{w})
		step := scale - w.V.Data.At(0, 0)
		if math.Abs(step-0.1) > 1e-6 {
			t.Fatalf("first adam step = %v at scale %v, want ≈0.1", step, scale)
		}
	}
}

// Capture/restore must make one Adam instance serve two independent
// training trajectories (the per-device replica pattern): interleaving two
// captured states produces bit-identical weights to two separate
// optimizers.
func TestAdamCaptureRestoreIndependentTrajectories(t *testing.T) {
	step := func(w *Param, opt *Adam, target float64) {
		loss := quadratic(w, target)
		ZeroGrad(singleParam{w})
		loss.Backward()
		opt.Step([]*Param{w})
	}
	// Reference: two private optimizers.
	wa := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{5, -3}}))}
	wb := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{5, -3}}))}
	oa, ob := NewAdam(0.1), NewAdam(0.1)
	for i := 0; i < 20; i++ {
		step(wa, oa, 2)
		step(wb, ob, -4)
	}

	// One shared optimizer + one shared parameter, two replicas swapped
	// through capture/restore.
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{5, -3}}))}
	o := NewAdam(0.1)
	params := []*Param{w}
	weightsA := w.V.Data.Clone()
	weightsB := w.V.Data.Clone()
	stA := o.CaptureState(params)
	stB := o.CaptureState(params)
	for i := 0; i < 20; i++ {
		w.V.Data.CopyFrom(weightsA)
		o.RestoreState(params, stA)
		step(w, o, 2)
		weightsA.CopyFrom(w.V.Data)
		stA = o.CaptureState(params)

		w.V.Data.CopyFrom(weightsB)
		o.RestoreState(params, stB)
		step(w, o, -4)
		weightsB.CopyFrom(w.V.Data)
		stB = o.CaptureState(params)
	}
	for i, want := range wa.V.Data.Data() {
		if got := weightsA.Data()[i]; got != want {
			t.Fatalf("trajectory A diverged at %d: %v != %v", i, got, want)
		}
	}
	for i, want := range wb.V.Data.Data() {
		if got := weightsB.Data()[i]; got != want {
			t.Fatalf("trajectory B diverged at %d: %v != %v", i, got, want)
		}
	}
	if stA.StepCount() != 20 || stB.StepCount() != 20 {
		t.Fatalf("captured step counts %d/%d, want 20", stA.StepCount(), stB.StepCount())
	}
}

// A captured state is detached: stepping after capture must not mutate it,
// and restoring a never-stepped state clears the moments.
func TestAdamCaptureStateDetached(t *testing.T) {
	w := &Param{Name: "w", V: autodiff.Var(tensor.FromRows([][]float64{{3}}))}
	o := NewAdam(0.1)
	params := []*Param{w}
	fresh := o.CaptureState(params) // never stepped: nil moments, t=0
	loss := quadratic(w, 0)
	loss.Backward()
	o.Step(params)
	mid := o.CaptureState(params)
	loss2 := quadratic(w, 0)
	ZeroGrad(singleParam{w})
	loss2.Backward()
	o.Step(params)
	if o.t != 2 || mid.StepCount() != 1 {
		t.Fatalf("step counts: live %d (want 2), captured %d (want 1)", o.t, mid.StepCount())
	}
	o.RestoreState(params, fresh)
	if o.t != 0 {
		t.Fatalf("restored fresh state has t=%d", o.t)
	}
	if len(o.m) != 0 || len(o.v) != 0 {
		t.Fatalf("restoring a never-stepped state left %d/%d moments", len(o.m), len(o.v))
	}
}

// mixMomentsOracle is the per-source moment mix MixModelsInto replaced,
// kept as its oracle: each moment starts from +0 and adds every non-nil
// source moment in its own pass, picked out by a closure.
func mixMomentsOracle(srcs []*OptState, ws []float64, pick func(*OptState) []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(srcs[0].m))
	for i := range out {
		for j, s := range srcs {
			mj := pick(s)[i]
			if mj == nil {
				continue
			}
			if out[i] == nil {
				out[i] = tensor.New(mj.Rows(), mj.Cols())
			}
			tensor.AddScaledInPlace(out[i], ws[j], mj)
		}
	}
	return out
}

// MixModelsInto without weights (the optimizer-state mix) matches the
// per-source oracle bit for bit for 1–9 sources, with nil moments in some
// sources and entries salted with ±0 and subnormals; a moment every source
// lacks stays nil, and the destination's stale buffers do not leak into the
// result.
func TestMixOptStatesMatchesOracle(t *testing.T) {
	entries := []float64{0, math.Copysign(0, -1), 5e-324, -7e-322, 1.5, -0.25, 3e-9}
	k := 0
	mat := func() *tensor.Matrix {
		m := tensor.New(2, 3)
		for i := range m.Data() {
			m.Data()[i] = entries[k%len(entries)] * float64(1+k%5)
			k++
		}
		return m
	}
	pool := make([]*OptState, 9)
	for j := range pool {
		st := &OptState{t: j + 1, m: make([]*tensor.Matrix, 3), v: make([]*tensor.Matrix, 3)}
		for i := 0; i < 2; i++ { // parameter 2 is never stepped anywhere
			if (i+j)%3 != 0 {
				st.m[i], st.v[i] = mat(), mat()
			}
		}
		pool[j] = st
	}
	dst := &OptState{m: []*tensor.Matrix{mat(), nil, mat()}, v: []*tensor.Matrix{nil, mat(), mat()}}
	for ns := 1; ns <= 9; ns++ {
		srcs, ws := pool[:ns], make([]float64, ns)
		for j := range ws {
			ws[j] = 1 / float64(j+2)
		}
		if err := MixModelsInto(nil, dst, nil, srcs, ws); err != nil {
			t.Fatal(err)
		}
		wantM := mixMomentsOracle(srcs, ws, func(s *OptState) []*tensor.Matrix { return s.m })
		wantV := mixMomentsOracle(srcs, ws, func(s *OptState) []*tensor.Matrix { return s.v })
		for i := range wantM {
			for _, c := range []struct{ got, want *tensor.Matrix }{{dst.m[i], wantM[i]}, {dst.v[i], wantV[i]}} {
				if (c.got == nil) != (c.want == nil) {
					t.Fatalf("%d sources, param %d: nil %v, oracle nil %v", ns, i, c.got == nil, c.want == nil)
				}
				if c.got == nil {
					continue
				}
				for e, x := range c.got.Data() {
					if math.Float64bits(x) != math.Float64bits(c.want.Data()[e]) {
						t.Fatalf("%d sources, param %d[%d]: %v, oracle %v", ns, i, e, x, c.want.Data()[e])
					}
				}
			}
		}
		if dst.StepCount() != srcs[0].StepCount() {
			t.Fatalf("step count %d, want the self source's %d", dst.StepCount(), srcs[0].StepCount())
		}
	}
	if err := MixModelsInto(nil, pool[0], nil, pool[:2], []float64{0.5, 0.5}); err == nil {
		t.Fatal("aliased destination accepted")
	}
}
