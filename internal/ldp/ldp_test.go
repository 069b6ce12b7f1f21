package ldp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// EncodeValue and RecoverValue are the one-bit mechanism on one element
// (Eq. 26 and 27), through the coder the vector encoders share.
func (m OneBit) EncodeValue(x float64, rng *rand.Rand) float64 {
	return m.coder().encode(x, rng)
}

func (m OneBit) RecoverValue(bit float64) float64 {
	return m.coder().recover(bit)
}

func TestOneBitValidate(t *testing.T) {
	if err := (OneBit{Eps: 1, A: 0, B: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []OneBit{{Eps: 0, A: 0, B: 1}, {Eps: -1, A: 0, B: 1}, {Eps: 1, A: 1, B: 1}, {Eps: 1, A: 2, B: 1}} {
		if err := m.Validate(); err == nil {
			t.Fatalf("config %+v must be invalid", m)
		}
	}
}

// TestTheorem3Unbiased verifies the paper's Theorem 3: the recovered
// feature is an unbiased estimator of the original.
func TestTheorem3Unbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := OneBit{Eps: 0.4, A: 0, B: 1}
	for _, x := range []float64{0, 0.2, 0.5, 0.77, 1} {
		const trials = 300000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += m.RecoverValue(m.EncodeValue(x, rng))
		}
		mean := sum / trials
		// The recovered scale is (b−a)/2·(e^ε+1)/(e^ε−1) ≈ 2.5 at ε=0.4, so
		// a ±0.03 tolerance is ≈4σ of the sample mean.
		if math.Abs(mean-x) > 0.03 {
			t.Fatalf("recovered mean %v for x=%v (bias %v)", mean, x, mean-x)
		}
	}
}

// TestTheorem4LikelihoodRatio verifies the ε-LDP bound of the one-bit
// encoder: for any two inputs, the probability ratio of any output is
// bounded by e^ε.
func TestTheorem4LikelihoodRatio(t *testing.T) {
	eps := 0.8
	m := OneBit{Eps: eps, A: 0, B: 1}
	e := math.Exp(eps)
	p := func(x float64) float64 { // P[bit=1 | x]
		return 1/(e+1) + x*(e-1)/(e+1)
	}
	for _, x1 := range []float64{0, 0.3, 1} {
		for _, x2 := range []float64{0, 0.7, 1} {
			r1 := p(x1) / p(x2)
			r0 := (1 - p(x1)) / (1 - p(x2))
			if r1 > e+1e-9 || r0 > e+1e-9 {
				t.Fatalf("likelihood ratio %v/%v exceeds e^eps=%v", r1, r0, e)
			}
		}
	}
	_ = m
}

func TestEncodeValueClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := OneBit{Eps: 100, A: 0, B: 1} // near-deterministic at huge ε
	ones := 0
	for i := 0; i < 1000; i++ {
		ones += int(m.EncodeValue(5 /* above B: clamped to 1 */, rng))
	}
	if ones < 990 {
		t.Fatalf("clamped encode of 5 gave %d ones", ones)
	}
}

func TestRecoverValueCases(t *testing.T) {
	m := OneBit{Eps: 1, A: -2, B: 2}
	if got := m.RecoverValue(NotTransmitted); got != 0 {
		t.Fatalf("midpoint recovery = %v, want 0", got)
	}
	hi := m.RecoverValue(1)
	lo := m.RecoverValue(0)
	if hi <= 0 || lo >= 0 || math.Abs(hi+lo) > 1e-12 {
		t.Fatalf("recovery not symmetric: %v / %v", hi, lo)
	}
}

func TestRecoverValuePanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneBit{Eps: 1, A: 0, B: 1}.RecoverValue(0.7)
}

func TestBinPartitionCoversEverythingOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bins := BinPartition(103, 7, rng)
	if len(bins) != 7 {
		t.Fatalf("bins = %d", len(bins))
	}
	seen := make([]int, 103)
	for _, b := range bins {
		for _, i := range b {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("element %d in %d bins", i, c)
		}
	}
	// Near-equal sizes: 103 = 7*14 + 5 → sizes 14 or 15.
	for k, b := range bins {
		if len(b) != 14 && len(b) != 15 {
			t.Fatalf("bin %d size %d", k, len(b))
		}
	}
}

func TestQuickBinPartition(t *testing.T) {
	f := func(d, bins uint8, seed int64) bool {
		dd, bb := int(d%200)+1, int(bins%10)+1
		parts := BinPartition(dd, bb, rand.New(rand.NewSource(seed)))
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		return total == dd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := FeatureEncoder{Epsilon: 2, A: 0, B: 1, Workload: 4, Dim: 20}
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
	}
	parts, err := f.Encode(x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	transmitted := 0
	for _, p := range parts {
		if len(p) != 20 {
			t.Fatalf("part length %d", len(p))
		}
		for _, v := range p {
			switch v {
			case 0, 1:
				transmitted++
			case NotTransmitted:
			default:
				t.Fatalf("encoded value %v", v)
			}
		}
	}
	if transmitted != 20 {
		t.Fatalf("transmitted %d elements, want every element exactly once", transmitted)
	}
	if rec := recoverVector(f, parts[0]); len(rec) != 20 {
		t.Fatal("recover length wrong")
	}
}

func TestFeatureEncoderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bad := FeatureEncoder{Epsilon: 2, A: 0, B: 1, Workload: 0, Dim: 4}
	if _, err := bad.Encode(make([]float64, 4), rng); err == nil {
		t.Fatal("workload 0 must error")
	}
	f := FeatureEncoder{Epsilon: 2, A: 0, B: 1, Workload: 2, Dim: 4}
	if _, err := f.Encode(make([]float64, 3), rng); err == nil {
		t.Fatal("wrong feature length must error")
	}
	x, row := make([]float64, 4), make([]float64, 4)
	if err := f.EncodeRecover(make([]float64, 3), [][]float64{row, row}, nil, rng); err == nil {
		t.Fatal("EncodeRecover: wrong feature length must error")
	}
	if err := f.EncodeRecover(x, [][]float64{row}, nil, rng); err == nil {
		t.Fatal("EncodeRecover: a row count other than the workload must error")
	}
	if err := f.EncodeRecover(x, [][]float64{row, make([]float64, 3)}, nil, rng); err == nil {
		t.Fatal("EncodeRecover: wrong row length must error")
	}
	if err := bad.EncodeRecover(x, nil, nil, rng); err == nil {
		t.Fatal("EncodeRecover: workload 0 must error")
	}
	if err := f.EncodeRecover(x, [][]float64{row, row}, [][]int32{make([]int32, 2)}, rng); err == nil {
		t.Fatal("EncodeRecover: a sent-list count other than the workload must error")
	}
	if err := f.EncodeRecover(x, [][]float64{row, row}, [][]int32{make([]int32, 2), make([]int32, 3)}, rng); err == nil {
		t.Fatal("EncodeRecover: a sent list longer than its bin must error")
	}
}

// recoverVector is Eq. 27 over one received encoded vector, the recovery the
// embedding exchange ran on every part before EncodeRecover fused it into
// the encoding: the oracle EncodeRecover is checked against.
func recoverVector(f FeatureEncoder, enc []float64) []float64 {
	ob := OneBit{Eps: f.PerElementEps(), A: f.A, B: f.B}.coder()
	out := make([]float64, len(enc))
	for i, b := range enc {
		out[i] = ob.recover(b)
	}
	return out
}

// EncodeRecover equals Encode followed by recovering every part, bit for
// bit, and leaves the RNG where Encode leaves it: for workloads 1, 2, d−1
// and d, and for workloads that do not divide d. The sent-column lists name
// exactly the elements Encode transmitted to each part.
func TestEncodeRecoverMatchesEncodeThenRecover(t *testing.T) {
	for _, c := range []struct{ d, wl int }{
		{17, 1}, {17, 2}, {17, 16}, {17, 17}, {17, 5},
		{20, 1}, {20, 2}, {20, 19}, {20, 20}, {20, 3}, {1, 1},
	} {
		f := FeatureEncoder{Epsilon: 1.7, A: -0.5, B: 2, Workload: c.wl, Dim: c.d}
		seed := int64(100*c.d + c.wl)
		xr := rand.New(rand.NewSource(-seed))
		x := make([]float64, c.d)
		for i := range x {
			x[i] = -1 + 3.5*xr.Float64() // some outside [A,B]
		}
		ref := rand.New(rand.NewSource(seed))
		parts, err := f.Encode(x, ref)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, c.wl)
		for k := range rows {
			rows[k] = make([]float64, c.d)
			for i := range rows[k] {
				rows[k][i] = math.NaN() // every element must be written
			}
		}
		sent := make([][]int32, c.wl)
		for k := range sent {
			sent[k] = make([]int32, f.BinLen(k))
		}
		if err := f.EncodeRecover(x, rows, sent, rng); err != nil {
			t.Fatal(err)
		}
		for k, part := range parts {
			var transmitted []int32
			for i, b := range part {
				if b != NotTransmitted {
					transmitted = append(transmitted, int32(i))
				}
			}
			got := slices.Sorted(slices.Values(sent[k]))
			if !slices.Equal(got, transmitted) {
				t.Fatalf("d=%d wl=%d: part %d sent columns %v, Encode transmitted %v", c.d, c.wl, k, got, transmitted)
			}
			want := recoverVector(f, part)
			for i := range want {
				if math.Float64bits(rows[k][i]) != math.Float64bits(want[i]) {
					t.Fatalf("d=%d wl=%d: row %d[%d] = %v, Encode+recover %v", c.d, c.wl, k, i, rows[k][i], want[i])
				}
			}
		}
		if rng.Int63() != ref.Int63() {
			t.Fatalf("d=%d wl=%d: EncodeRecover left the RNG at a different position from Encode", c.d, c.wl)
		}
	}
}

func TestFeatureEncoderBudget(t *testing.T) {
	f := FeatureEncoder{Epsilon: 2, A: 0, B: 1, Workload: 8, Dim: 128}
	want := 2.0 * 8 / 128
	if math.Abs(f.PerElementEps()-want) > 1e-12 {
		t.Fatalf("per-element eps = %v, want %v", f.PerElementEps(), want)
	}
}

func TestGaussianSigma(t *testing.T) {
	s, err := GaussianSigma(2, 1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2*math.Log(1.25/1e-5)) / 2
	if math.Abs(s-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", s, want)
	}
	for _, args := range [][3]float64{{0, 1e-5, 1}, {1, 0, 1}, {1, 2, 1}, {1, 1e-5, 0}} {
		if _, err := GaussianSigma(args[0], args[1], args[2]); err == nil {
			t.Fatalf("args %v must error", args)
		}
	}
}

func TestGaussianPerturbStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Gaussian{Sigma: 2}
	x := make([]float64, 100000)
	g.Perturb(x, rng)
	mean, varsum := 0.0, 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		varsum += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varsum / float64(len(x)))
	if math.Abs(mean) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("gaussian stats mean=%v std=%v", mean, std)
	}
}

func TestRandomizedResponseKeepRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rr := RandomizedResponse{Eps: 1, K: 4}
	kept := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if rr.Perturb(2, rng) == 2 {
			kept++
		}
	}
	got := float64(kept) / trials
	if math.Abs(got-rr.KeepProb()) > 0.01 {
		t.Fatalf("keep rate %v, want %v", got, rr.KeepProb())
	}
}

func TestRandomizedResponseOutputsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rr := RandomizedResponse{Eps: 0.1, K: 5}
	for i := 0; i < 1000; i++ {
		v := rr.Perturb(i%5, rng)
		if v < 0 || v >= 5 {
			t.Fatalf("output %d outside range", v)
		}
	}
}

func TestRandomizedResponsePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomizedResponse{Eps: 1, K: 1}.Perturb(0, rng)
}

func TestMultiBitEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := MultiBit{Eps: 2, M: 3, A: 0, B: 1}
	x := []float64{1, 0, 1, 0, 1, 0, 1, 0}
	out, err := m.Encode(x, rng)
	if err != nil {
		t.Fatal(err)
	}
	nonMid := 0
	for _, v := range out {
		if v != 0.5 {
			nonMid++
		}
	}
	if nonMid != 3 {
		t.Fatalf("%d dims transmitted, want 3", nonMid)
	}
	if _, err := m.Encode(nil, rng); err == nil {
		t.Fatal("empty feature must error")
	}
}

func TestMultiBitUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := MultiBit{Eps: 4, M: 1, A: 0, B: 1}
	x := []float64{0.8, 0.1}
	const trials = 200000
	sums := make([]float64, 2)
	for i := 0; i < trials; i++ {
		out, err := m.Encode(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		sums[0] += out[0]
		sums[1] += out[1]
	}
	// Each dim is sampled half the time (mid 0.5 otherwise), so
	// E[out_i] = 0.5·x_i + 0.5·0.5.
	for i, x0 := range x {
		want := 0.5*x0 + 0.25
		got := sums[i] / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("dim %d mean %v, want %v", i, got, want)
		}
	}
}

func TestComposedEps(t *testing.T) {
	if ComposedEps(0.5, 1, 0.25) != 1.75 {
		t.Fatal("composition sum wrong")
	}
}

// encodeOracle and recoverOracle are Eq. 26 and 27 as EncodeValue and
// RecoverValue computed them before the vector encoders shared one e^ε:
// e^ε evaluated for every element.
func encodeOracle(m OneBit, x float64, rng *rand.Rand) float64 {
	e := math.Exp(m.Eps)
	p := 1/(e+1) + (clamp(x, m.A, m.B)-m.A)/(m.B-m.A)*(e-1)/(e+1)
	if rng.Float64() < p {
		return 1
	}
	return 0
}

func recoverOracle(m OneBit, bit float64) float64 {
	e := math.Exp(m.Eps)
	switch bit {
	case 1:
		return (m.B-m.A)/2*(e+1)/(e-1) + (m.A+m.B)/2
	case 0:
		return (m.A-m.B)/2*(e+1)/(e-1) + (m.A+m.B)/2
	default:
		return (m.A + m.B) / 2
	}
}

// The vector encoders evaluate e^ε once per call; their outputs match the
// per-element methods and the per-element oracle bit for bit under a fixed
// RNG — the bins, every encoded bit, every recovered value, and the RNG
// stream left behind.
func TestVectorEncodersMatchPerElement(t *testing.T) {
	for ci, f := range []FeatureEncoder{
		{Epsilon: 2, A: 0, B: 1, Workload: 4, Dim: 20},
		{Epsilon: 0.3, A: -1.5, B: 2.25, Workload: 3, Dim: 17},
		{Epsilon: 9, A: -3, B: -1, Workload: 1, Dim: 8},
	} {
		seed := int64(40 + ci)
		xr := rand.New(rand.NewSource(seed))
		x := make([]float64, f.Dim)
		for i := range x {
			x[i] = f.A - 0.5 + (f.B-f.A+1)*xr.Float64() // some outside [A,B]
		}
		ob := OneBit{Eps: f.PerElementEps(), A: f.A, B: f.B}

		rng := rand.New(rand.NewSource(seed))
		got, err := f.Encode(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		next := rng.Int63()
		for _, oracle := range []struct {
			name   string
			encode func(float64, *rand.Rand) float64
		}{
			{"EncodeValue", ob.EncodeValue},
			{"oracle", func(v float64, r *rand.Rand) float64 { return encodeOracle(ob, v, r) }},
		} {
			ref := rand.New(rand.NewSource(seed))
			bins := BinPartition(f.Dim, f.Workload, ref)
			for k, bin := range bins {
				want := make([]float64, f.Dim)
				for i := range want {
					want[i] = NotTransmitted
				}
				for _, i := range bin {
					want[i] = oracle.encode(x[i], ref)
				}
				for i := range want {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[i]) {
						t.Fatalf("config %d, part %d[%d]: Encode %v, %s %v", ci, k, i, got[k][i], oracle.name, want[i])
					}
				}
			}
			if ref.Int63() != next {
				t.Fatalf("config %d: Encode left the RNG at a different position from %s", ci, oracle.name)
			}
		}
		for k, part := range got {
			rec := recoverVector(f, part)
			for i, b := range part {
				for name, want := range map[string]float64{"RecoverValue": ob.RecoverValue(b), "oracle": recoverOracle(ob, b)} {
					if math.Float64bits(rec[i]) != math.Float64bits(want) {
						t.Fatalf("config %d, part %d[%d]: recoverVector %v, %s %v", ci, k, i, rec[i], name, want)
					}
				}
			}
		}

		m := MultiBit{Eps: f.Epsilon, M: f.Dim / 2, A: f.A, B: f.B}
		mob := OneBit{Eps: m.Eps / float64(m.M), A: m.A, B: m.B}
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		out, err := m.Encode(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range ref.Perm(f.Dim)[:m.M] {
			if want := recoverOracle(mob, encodeOracle(mob, x[i], ref)); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("config %d: MultiBit element %d: %v, oracle %v", ci, i, out[i], want)
			}
		}
	}
}
