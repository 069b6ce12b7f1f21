package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"lumos/internal/tensor"
)

// biasReLUDropoutChain is the three-op chain BiasReLUDropout replaced in a
// GNN's hidden layers, kept as its oracle.
func biasReLUDropoutChain(a, b *Value, p float64, rng *rand.Rand, training bool) *Value {
	return Dropout(ReLU(AddRow(a, b)), p, rng, training)
}

// TestBiasReLUDropoutMatchesChain compares BiasReLUDropout with the chain
// bit for bit — the output, both parents' gradients and the stream's
// position afterwards — in training mode, in eval mode and at p = 0. The
// pre-activations hold +0, −0, NaN and ±Inf; the upstream gradient puts
// NaN, ±Inf, −0 and a negative value on entries the stream drops where the
// ReLU passes, and on entries the ReLU blocks. The bias is a parameter (off
// any tape), as in a layer, and accumulates over two backward passes. The
// input is a leaf of its own, a constant (only the bias receives a
// gradient), or shared with a later op (its gradient is not fresh when the
// op's backward runs).
func TestBiasReLUDropoutMatchesChain(t *testing.T) {
	const rows, cols, seed = 9, 5, 31
	rng := rand.New(rand.NewSource(77))
	am, bm := randProjection(rows, cols, rng), randMatrix(1, cols, rng)
	negZero := math.Copysign(0, -1)
	bm.Set(0, 0, 0.7)
	am.Set(0, 0, -0.7) // y = +0
	bm.Set(0, 1, negZero)
	am.Set(0, 1, negZero) // y = −0
	am.Set(1, 0, math.NaN())
	am.Set(1, 2, math.Inf(1))
	am.Set(2, 2, math.Inf(-1))

	// Which entries the stream drops at p = 0.5, replayed from the seed.
	const p = 0.5
	replay := rand.New(rand.NewSource(seed))
	g := randProjection(rows, cols, rng)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, -2.5}
	var droppedLive, blocked int
	for i := range rows {
		for j := range cols {
			dropped := replay.Float64() < p
			switch y := am.At(i, j) + bm.At(0, j); {
			case !(y > 0):
				g.Set(i, j, specials[blocked%len(specials)])
				blocked++
			case dropped:
				g.Set(i, j, specials[droppedLive%len(specials)])
				droppedLive++
			}
		}
	}
	if droppedLive < len(specials) || blocked < len(specials) {
		t.Fatalf("inputs cover %d dropped live entries and %d blocked ones, want ≥ %d of each", droppedLive, blocked, len(specials))
	}

	type result struct {
		out, ga, gb *tensor.Matrix
		next        float64
	}
	run := func(op func(a, b *Value, p float64, rng *rand.Rand, training bool) *Value, p float64, training bool, input string) result {
		b := Var(bm)
		var r result
		for range 2 {
			tp := NewTape()
			a := tp.Var(am)
			if input == "const" {
				a = tp.Const(am)
			}
			rng := rand.New(rand.NewSource(seed))
			y := op(a, b, p, rng, training)
			root := y
			if input == "shared" {
				root = Add(y, a)
			}
			root.BackwardWithGradient(g)
			r = result{out: y.Data, ga: a.Grad, gb: b.Grad, next: rng.Float64()}
		}
		return r
	}
	for _, m := range []struct {
		name     string
		p        float64
		training bool
	}{{"train", p, true}, {"eval", p, false}, {"p=0", 0, true}} {
		for _, input := range []string{"var", "const", "shared"} {
			name := m.name + "/" + input
			want := run(biasReLUDropoutChain, m.p, m.training, input)
			got := run(BiasReLUDropout, m.p, m.training, input)
			requireBits(t, name+" output", want.out, got.out)
			requireBits(t, name+" bias gradient", want.gb, got.gb)
			if input == "const" {
				if got.ga != nil {
					t.Fatalf("%s: a constant input received a gradient", name)
				}
			} else {
				requireBits(t, name+" input gradient", want.ga, got.ga)
			}
			if math.Float64bits(want.next) != math.Float64bits(got.next) {
				t.Fatalf("%s: the op left the stream at a different position than the chain", name)
			}
		}
	}
}
