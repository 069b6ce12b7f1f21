package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lumos/internal/nn"
	"lumos/internal/tensor"
)

// A replica captured before training restores the exact pre-training model
// and optimizer state: resuming from it reproduces the original trajectory
// bit for bit.
func TestReplicaRoundTripBitIdentical(t *testing.T) {
	sys, split := roundSystem(t, 71)
	sess, err := sys.NewSession(NewSupervisedObjective(split))
	if err != nil {
		t.Fatal(err)
	}
	start := sys.NewReplica()
	active := make([]bool, sys.G.N)
	for i := range active {
		active[i] = true
	}
	step := func() float64 {
		out, err := sess.StepRound(RoundPlan{Active: active, TTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		return out.Loss
	}
	var ref []float64
	for i := 0; i < 3; i++ {
		ref = append(ref, step())
	}
	trained := sys.NewReplica()

	// Rewind to the captured start; replay must match bit for bit.
	if err := sys.LoadReplica(start); err != nil {
		t.Fatal(err)
	}
	// Replays draw fresh per-shard RNG state, so only the first replayed
	// loss is directly comparable when dropout is live; compare weights
	// instead: rewinding and replaying the same rounds against the same
	// session RNG stream is not possible mid-session, so assert the rewind
	// itself: weights and optimizer state equal the capture.
	snap := nn.Snapshot(sys)
	startSnap := start.weights
	for i := range snap {
		a, b := snap[i].Data(), startSnap[i].Data()
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("tensor %d drifted after LoadReplica", i)
			}
		}
	}
	if got := sys.opt.CaptureState(sys.Params()).StepCount(); got != start.opt.StepCount() {
		t.Fatalf("optimizer step count %d, want %d", got, start.opt.StepCount())
	}

	// And the trained replica restores the post-training state.
	if err := sys.LoadReplica(trained); err != nil {
		t.Fatal(err)
	}
	snap = nn.Snapshot(sys)
	for i := range snap {
		a, b := snap[i].Data(), trained.weights[i].Data()
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("tensor %d drifted restoring trained replica", i)
			}
		}
	}
	if ref[0] == ref[2] {
		t.Fatal("training produced no loss movement; test proves nothing")
	}
}

// mixOracle is the one-pass-per-source mix MixReplicas replaced, kept as its
// oracle: the weights start from ws[0]·srcs[0] and add each later source in
// its own pass; each moment starts from +0, adds every non-nil source moment
// in its own pass, and stays nil where every source's is nil.
func mixOracle(srcs []*Replica, ws []float64) (weights, m, v []*tensor.Matrix) {
	for i, w0 := range srcs[0].weights {
		out := w0.Clone()
		od := out.Data()
		for k, x := range w0.Data() {
			od[k] = ws[0] * x
		}
		for j := 1; j < len(srcs); j++ {
			tensor.AddScaledInPlace(out, ws[j], srcs[j].weights[i])
		}
		weights = append(weights, out)
		var mi, vi *tensor.Matrix
		for j, s := range srcs {
			sm, sv := s.opt.Moments(i)
			mi, vi = addMomentOracle(mi, ws[j], sm), addMomentOracle(vi, ws[j], sv)
		}
		m, v = append(m, mi), append(v, vi)
	}
	return weights, m, v
}

// addMomentOracle is one of mixOracle's per-source moment passes: acc (a +0
// matrix when nil) += w·src, skipped when src is nil.
func addMomentOracle(acc *tensor.Matrix, w float64, src *tensor.Matrix) *tensor.Matrix {
	if src == nil {
		return acc
	}
	if acc == nil {
		acc = tensor.New(src.Dims())
	}
	tensor.AddScaledInPlace(acc, w, src)
	return acc
}

// sameBits fails unless a and b are both nil or hold the same bits.
func sameBits(t *testing.T, what string, a, b *tensor.Matrix) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil %v, oracle nil %v", what, a == nil, b == nil)
	}
	if a == nil {
		return
	}
	ad, bd := a.Data(), b.Data()
	for k := range ad {
		if math.Float64bits(ad[k]) != math.Float64bits(bd[k]) {
			t.Fatalf("%s[%d]: %v (%#x), oracle %v (%#x)", what, k, ad[k], math.Float64bits(ad[k]), bd[k], math.Float64bits(bd[k]))
		}
	}
}

// MixReplicas matches the per-source oracle bit for bit — weights and both
// Adam moments — for 1–9 sources, where some sources have never stepped
// (nil moments) and entries are salted with ±0 and subnormals; it adopts the
// self source's step count.
func TestMixReplicas(t *testing.T) {
	sys, _, sess := roundSession(t, 72)
	fresh := sys.NewReplica() // never stepped: nil moments
	if _, err := sess.StepRound(RoundPlan{TTL: 2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	salt := func(m *tensor.Matrix) {
		if m == nil {
			return
		}
		d := m.Data()
		for k := range d {
			switch rng.Intn(6) {
			case 0:
				d[k] = math.Copysign(0, -1)
			case 1:
				d[k] = 0
			case 2:
				d[k] = -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(100))
			default:
				d[k] = rng.NormFloat64()
			}
		}
	}
	pool := make([]*Replica, 10)
	for j := range pool {
		r := sys.NewReplica()
		if j%4 == 1 {
			r = fresh.Clone()
		}
		for i, w := range r.weights {
			salt(w)
			m, v := r.opt.Moments(i)
			salt(m)
			salt(v)
		}
		pool[j] = r
	}
	dst := pool[0].Clone()
	for ns := 1; ns <= 9; ns++ {
		srcs, ws := pool[1:1+ns], make([]float64, ns)
		for j := range ws {
			ws[j] = rng.Float64()
		}
		if err := MixReplicas(dst, srcs, ws); err != nil {
			t.Fatal(err)
		}
		wantW, wantM, wantV := mixOracle(srcs, ws)
		for i := range dst.weights {
			m, v := dst.opt.Moments(i)
			sameBits(t, fmt.Sprintf("%d sources: weight %d", ns, i), dst.weights[i], wantW[i])
			sameBits(t, fmt.Sprintf("%d sources: m %d", ns, i), m, wantM[i])
			sameBits(t, fmt.Sprintf("%d sources: v %d", ns, i), v, wantV[i])
		}
		if dst.opt.StepCount() != srcs[0].opt.StepCount() {
			t.Fatal("mix did not adopt the self source's optimizer step count")
		}
	}
	a, b := pool[1], pool[2]
	if err := MixReplicas(a, []*Replica{a, b}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("aliased destination accepted")
	}
	if err := MixReplicas(dst, []*Replica{a}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("mismatched weight count accepted")
	}
}

// SwapReplica is a move: the system and the replica trade states exactly
// (by fingerprint), a second swap restores both, and a replica of the wrong
// shape is refused without moving anything.
func TestSwapReplica(t *testing.T) {
	sys, _, sess := roundSession(t, 76)
	r := sys.NewReplica() // never stepped
	if _, err := sess.StepRound(RoundPlan{TTL: 2}); err != nil {
		t.Fatal(err)
	}
	sysFP, rFP := sys.NewReplica().Fingerprint(), r.Fingerprint()
	if sysFP == rFP {
		t.Fatal("the step changed nothing; the test proves nothing")
	}
	if err := sys.SwapReplica(r); err != nil {
		t.Fatal(err)
	}
	if got := sys.NewReplica().Fingerprint(); got != rFP {
		t.Fatalf("system after swap %#x, want the replica's %#x", got, rFP)
	}
	if got := r.Fingerprint(); got != sysFP {
		t.Fatalf("replica after swap %#x, want the system's %#x", got, sysFP)
	}
	if err := sys.SwapReplica(r); err != nil {
		t.Fatal(err)
	}
	if got, gotR := sys.NewReplica().Fingerprint(), r.Fingerprint(); got != sysFP || gotR != rFP {
		t.Fatalf("two swaps: system %#x replica %#x, want %#x %#x", got, gotR, sysFP, rFP)
	}

	short := r.Clone()
	short.weights = short.weights[1:]
	wrong := r.Clone()
	rows, cols := wrong.weights[0].Dims()
	wrong.weights[0] = tensor.New(cols+1, rows)
	for name, bad := range map[string]*Replica{"tensor count": short, "tensor shape": wrong} {
		if err := sys.SwapReplica(bad); err == nil {
			t.Errorf("%s: wrong-shape replica accepted", name)
		}
		if got := sys.NewReplica().Fingerprint(); got != sysFP {
			t.Fatalf("%s: refused swap moved the system's state", name)
		}
	}
}

// After SwapReplica the system trains exactly as after LoadReplica: two
// identical systems rewound to the same replica, one by copy and one by
// move, take bit-identical steps. The shard views share the parameter
// matrices, so a move that replaced a *Matrix instead of its array would
// leave them training the old weights.
func TestSwapReplicaTrainsLikeLoad(t *testing.T) {
	var fps [2]uint64
	var losses [2]float64
	for side, install := range []func(*System, *Replica) error{
		(*System).LoadReplica,
		(*System).SwapReplica,
	} {
		sys, _, sess := roundSession(t, 77)
		step := func() float64 {
			out, err := sess.StepRound(RoundPlan{TTL: 2})
			if err != nil {
				t.Fatal(err)
			}
			return out.Loss
		}
		step()
		r := sys.NewReplica()
		step()
		if err := install(sys, r); err != nil {
			t.Fatal(err)
		}
		losses[side] = step()
		fps[side] = sys.NewReplica().Fingerprint()
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) || fps[0] != fps[1] {
		t.Fatalf("load then step: loss %v model %#x; swap then step: loss %v model %#x",
			losses[0], fps[0], losses[1], fps[1])
	}
}

// Replica cloning is deep for weights: mutating the clone leaves the
// original untouched.
func TestReplicaCloneDeep(t *testing.T) {
	sys, _ := roundSystem(t, 73)
	r := sys.NewReplica()
	cl := r.Clone()
	cl.weights[0].Data()[0] += 42
	if r.weights[0].Data()[0] == cl.weights[0].Data()[0] {
		t.Fatal("clone aliases the original's weights")
	}
}

// TestReplicaRoundTripDoesNotAllocate: once a replica's moments exist,
// storing into it, loading it, swapping it and mixing into it reuse its own
// buffers —
// the per-participant, per-round work of gossip allocates nothing.
func TestReplicaRoundTripDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	sys, _, sess := roundSession(t, 74)
	if _, err := sess.StepRound(RoundPlan{TTL: 2}); err != nil {
		t.Fatal(err)
	}
	r, dst := sys.NewReplica(), sys.NewReplica()
	srcs := []*Replica{sys.NewReplica(), sys.NewReplica(), sys.NewReplica()}
	ws := []float64{0.5, 0.3, 0.2}
	for name, op := range map[string]func() error{
		"StoreReplica": func() error { return sys.StoreReplica(r) },
		"LoadReplica":  func() error { return sys.LoadReplica(r) },
		"SwapReplica":  func() error { return sys.SwapReplica(r) },
		"MixReplicas":  func() error { return MixReplicas(dst, srcs, ws) },
	} {
		var err error
		run := func() {
			if e := op(); e != nil {
				err = e
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("steady-state %s allocates %.0f times, want 0", name, allocs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
