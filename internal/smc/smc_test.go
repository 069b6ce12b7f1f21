package smc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"lumos/internal/rng"
)

func TestLessExhaustiveSmall(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(8, stats)
	alice, bob := NewParty(1), NewParty(2)
	for a := uint64(0); a < 20; a++ {
		for b := uint64(0); b < 20; b++ {
			if got := p.Less(alice, a, bob, b); got != (a < b) {
				t.Fatalf("Less(%d,%d) = %v", a, b, got)
			}
		}
	}
}

func TestLessRandom64Bit(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(64, stats)
	alice, bob := NewParty(3), NewParty(4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got := p.Less(alice, a, bob, b); got != (a < b) {
			t.Fatalf("Less(%d,%d) = %v", a, b, got)
		}
	}
}

func TestLessEqualValues(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(16, stats)
	alice, bob := NewParty(6), NewParty(7)
	for _, v := range []uint64{0, 1, 255, 65535} {
		if p.Less(alice, v, bob, v) {
			t.Fatalf("Less(%d,%d) returned true", v, v)
		}
		if !p.LessOrEqual(alice, v, bob, v) {
			t.Fatalf("LessOrEqual(%d,%d) returned false", v, v)
		}
	}
}

func TestLessOrEqual(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(16, stats)
	alice, bob := NewParty(8), NewParty(9)
	if !p.LessOrEqual(alice, 3, bob, 5) || p.LessOrEqual(alice, 5, bob, 3) {
		t.Fatal("LessOrEqual wrong")
	}
}

func TestQuickLessMatchesPlaintext(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(32, stats)
	f := func(a, b uint32, s1, s2 int64) bool {
		alice, bob := NewParty(s1), NewParty(s2)
		return p.Less(alice, uint64(a), bob, uint64(b)) == (a < b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(32, stats)
	alice, bob := NewParty(10), NewParty(11)
	p.Less(alice, 5, bob, 9)
	if stats.Comparisons != 1 {
		t.Fatalf("comparisons = %d", stats.Comparisons)
	}
	// 2 AND gates per bit, 2 OTs per AND.
	if want := 4 * 32; stats.OTs != want {
		t.Fatalf("OTs = %d, want %d", stats.OTs, want)
	}
	// 2L input-share messages, 3 per OT, 2 for the reveal; 18 bytes per OT,
	// two packed ⌈L/8⌉-byte share vectors, 2 reveal bytes.
	if stats.Messages != 14*32+2 || stats.Bytes != 4*32*18+2*4+2 {
		t.Fatalf("traffic = %d messages, %d bytes", stats.Messages, stats.Bytes)
	}
	before := *stats
	p.Less(alice, 1, bob, 2)
	if stats.OTs != 2*before.OTs {
		t.Fatal("second comparison must cost the same OTs")
	}
}

func TestProtocolRangeCheck(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(8, stats)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range operand")
		}
	}()
	p.Less(NewParty(1), 300, NewParty(2), 1)
}

func TestNewProtocolValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 65} {
		func() {
			defer func() { recover() }()
			NewProtocol(bits, &Stats{})
			t.Fatalf("bits=%d must panic", bits)
		}()
	}
	func() {
		defer func() { recover() }()
		NewProtocol(32, nil)
		t.Fatal("nil stats must panic")
	}()
}

func TestObliviousTransferDeliversChoice(t *testing.T) {
	stats := &Stats{}
	sender := NewParty(12)
	for i := 0; i < 100; i++ {
		m0, m1 := byte(i%2), byte((i+1)%2)
		if got := obliviousTransferBit(sender, m0, m1, 0, stats); got != m0 {
			t.Fatalf("OT choice 0 returned %d", got)
		}
		if got := obliviousTransferBit(sender, m0, m1, 1, stats); got != m1 {
			t.Fatalf("OT choice 1 returned %d", got)
		}
	}
	if stats.OTs != 200 {
		t.Fatalf("OT count = %d", stats.OTs)
	}
}

// TestObliviousTransferWordDeliversChoice: the word-wide OT delivers
// m_choice bit by bit, whatever the pads.
func TestObliviousTransferWordDeliversChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		m0, m1, choice := rng.Uint64(), rng.Uint64(), rng.Uint64()
		got := obliviousTransfer(m0, m1, choice, rng.Uint64(), rng.Uint64())
		for j := 0; j < 64; j++ {
			want := m0 >> j & 1
			if choice>>j&1 == 1 {
				want = m1 >> j & 1
			}
			if got>>j&1 != want {
				t.Fatalf("bit %d: got %d, want m_%d = %d", j, got>>j&1, choice>>j&1, want)
			}
		}
	}
}

// statsDelta is the traffic recorded between two snapshots of one Stats.
func statsDelta(after, before Stats) Stats {
	return Stats{
		Messages:    after.Messages - before.Messages,
		Bytes:       after.Bytes - before.Bytes,
		OTs:         after.OTs - before.OTs,
		Comparisons: after.Comparisons - before.Comparisons,
	}
}

// TestLessMatchesBitSerialOracle: the word-parallel Less returns the
// bit-serial evaluator's result and charges the same traffic, field by
// field, on every call — exhaustively at L=8, and on random pairs plus edge
// operands (0, 2^L−1, equal values, values differing only in the LSB or only
// in the MSB) at the wider widths. The two run on independent party streams:
// no result may depend on which random bits mask which wire.
func TestLessMatchesBitSerialOracle(t *testing.T) {
	for _, width := range []int{8, 16, 32, 48, 64} {
		var got, want Stats
		p, oracle := NewProtocol(width, &got), NewProtocol(width, &want)
		alice, bob := NewParty(int64(width)), NewParty(int64(width)+1)
		oAlice, oBob := NewParty(-int64(width)), NewParty(-int64(width)-1)
		check := func(a, b uint64) {
			g0, w0 := got, want
			r, o := p.Less(alice, a, bob, b), oracle.lessOracle(oAlice, a, oBob, b)
			if r != o || r != (a < b) {
				t.Fatalf("L=%d: Less(%d,%d) = %v, oracle %v", width, a, b, r, o)
			}
			if gd, wd := statsDelta(got, g0), statsDelta(want, w0); gd != wd {
				t.Fatalf("L=%d: Less(%d,%d) charged %+v, oracle %+v", width, a, b, gd, wd)
			}
		}
		top := ^uint64(0) >> (64 - width)
		if width == 8 {
			for a := uint64(0); a <= top; a++ {
				for b := uint64(0); b <= top; b++ {
					check(a, b)
				}
			}
			continue
		}
		rng := rand.New(rand.NewSource(int64(100 + width)))
		for i := 0; i < 10000; i++ {
			check(rng.Uint64()&top, rng.Uint64()&top)
		}
		msb := uint64(1) << (width - 1)
		for _, v := range []uint64{0, 1, top, top - 1, msb, rng.Uint64() & top, rng.Uint64() & top} {
			check(v, v)
			check(v, v^1)
			check(v^1, v)
			check(v, v^msb)
			check(v^msb, v)
			check(v, 0)
			check(0, v)
			check(v, top)
			check(top, v)
		}
	}
}

// TestAcceptMHGrid: over a grid of integral workloads and uniform draws
// away from the accept boundary, AcceptMH decides exactly ln u < fx − fy.
func TestAcceptMHGrid(t *testing.T) {
	fxs := []float64{1, 2, 3, 5, 8, 16, 100, 1000}
	fys := []float64{0, 1, 2, 3, 5, 8, 16, 100, 1000}
	us := []float64{1, 0.9, 0.75, 0.5, 0.3, 0.1, 0.01, 1e-4, 1e-9, 0x1p-53}
	for _, width := range []int{32, 48, 64} {
		p := NewProtocol(width, &Stats{})
		alice, bob := NewParty(23), NewParty(24)
		for _, fx := range fxs {
			for _, fy := range fys {
				for _, u := range us {
					if got, want := p.AcceptMH(alice, fx, bob, fy, u), math.Log(u) < fx-fy; got != want {
						t.Fatalf("L=%d: AcceptMH(fx=%v, fy=%v, u=%v) = %v, want %v", width, fx, fy, u, got, want)
					}
				}
			}
		}
	}
}

// TestLessDoesNotAllocate: a secure comparison allocates nothing.
func TestLessDoesNotAllocate(t *testing.T) {
	p := NewProtocol(32, &Stats{})
	alice, bob := NewParty(25), NewParty(26)
	for name, fn := range map[string]func(){
		"Less":        func() { p.Less(alice, 12345, bob, 54321) },
		"LessOrEqual": func() { p.LessOrEqual(alice, 12345, bob, 54321) },
		"AcceptMH":    func() { p.AcceptMH(alice, 10, bob, 11, 0.3) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// TestAcceptMHStatistics: accept frequency over uniform draws must match
// min(1, e^{fx−fy}).
func TestAcceptMHStatistics(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(48, stats)
	alice, bob := NewParty(13), NewParty(14)
	rng := rand.New(rand.NewSource(15))
	cases := []struct {
		fx, fy float64
	}{
		{10, 5},  // improvement: always accept
		{5, 5},   // equal: always accept (e^0 = 1)
		{5, 6},   // worse by 1: accept w.p. e^{-1}
		{5, 7.5}, // worse by 2.5: accept w.p. e^{-2.5}
	}
	for _, c := range cases {
		const trials = 4000
		accepts := 0
		for i := 0; i < trials; i++ {
			if p.AcceptMH(alice, c.fx, bob, c.fy, 1-rng.Float64()) {
				accepts++
			}
		}
		want := math.Min(1, math.Exp(c.fx-c.fy))
		got := float64(accepts) / trials
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("AcceptMH(%v,%v): rate %v, want %v", c.fx, c.fy, got, want)
		}
	}
}

func TestAcceptMHValidatesU(t *testing.T) {
	stats := &Stats{}
	p := NewProtocol(48, stats)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for u=0")
		}
	}()
	p.AcceptMH(NewParty(1), 1, NewParty(2), 1, 0)
}

func TestToFixedSaturates(t *testing.T) {
	// Values exceeding the bit width saturate instead of wrapping.
	big := toFixed(1e18, 32)
	if big != uint64(math.Ldexp(1, 32)-1) {
		t.Fatalf("toFixed overflow = %d", big)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative toFixed must panic")
		}
	}()
	toFixed(-1, 32)
}

// TestPartyDeterminism: a Party with the same seed yields the same protocol
// transcript, giving reproducible experiments.
func TestPartyDeterminism(t *testing.T) {
	run := func() []bool {
		stats := &Stats{}
		p := NewProtocol(16, stats)
		alice, bob := NewParty(20), NewParty(21)
		var outs []bool
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 50; i++ {
			outs = append(outs, p.Less(alice, uint64(rng.Intn(100)), bob, uint64(rng.Intn(100))))
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("protocol not deterministic under fixed seeds")
		}
	}
}

// TestPartyStreamDeterministic: a party's stream is a function of its seed
// alone. Parties built from one seed end every comparison in the same state,
// so they drew the same words through Less; parties built from different
// seeds draw different words.
func TestPartyStreamDeterministic(t *testing.T) {
	p := NewProtocol(16, &Stats{})
	a1, b1 := NewParty(3), NewParty(4)
	a2, b2 := NewParty(3), NewParty(4)
	for i := uint64(0); i < 50; i++ {
		x, y := i*977%65536, i*331%65536
		if p.Less(a1, x, b1, y) != p.Less(a2, x, b2, y) {
			t.Fatalf("comparison %d differs between same-seed parties", i)
		}
		if *a1 != *a2 || *b1 != *b2 {
			t.Fatalf("comparison %d left same-seed parties in different states", i)
		}
	}
	if *a1 == *b1 {
		t.Fatal("parties with seeds 3 and 4 are in the same state")
	}
	seen := map[uint64]int64{}
	for _, seed := range []int64{0, 1, 2, -1, -7, rng.Derive(0, rng.SMCParty, 0), rng.Derive(7, rng.SMCParty, 0)} {
		q := NewParty(seed)
		for i := 0; i < 7; i++ {
			w := q.src.Uint64()
			if prev, ok := seen[w]; ok {
				t.Fatalf("seeds %d and %d both drew %#x", prev, seed, w)
			}
			seen[w] = seed
		}
	}
}

// A party is its PCG: a device's comparison state costs a few words, not
// a lagged-Fibonacci register.
func TestPartyIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Party{}); size > 32 {
		t.Fatalf("Party is %d bytes, want at most 32", size)
	}
}
