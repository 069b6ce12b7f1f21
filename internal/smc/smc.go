// Package smc implements the secure two-party computation primitives that
// Lumos's tree constructor relies on: a simulated 1-out-of-2 oblivious
// transfer (OT) and, on top of it, a GMW-style secret-shared less-than
// comparator over L-bit integers in the spirit of CrypTFlow2's millionaires
// protocol (paper §V-C: degree comparisons in the greedy initialization and
// workload comparisons in Alg. 3 both run under this protocol, so that only
// the comparison bit — never the operand — is revealed; Definition 2's
// zero-knowledge requirement).
//
// Simulation caveat (documented substitution): the OT here is an in-process
// functionality — correctness, message counts, and the receiver's view are
// faithful (the receiver obtains exactly m_choice, the sender learns
// nothing about the choice, messages on the wire are one-time-pad masked by
// the sender's private randomness), but it does not implement the
// public-key base OTs / OT extension a deployment would use. All traffic is
// routed through Stats so experiments can account for every byte a real
// deployment would move.
//
// Word-parallel evaluation. Less evaluates the comparator circuit on 64-bit
// words: bit i of every share, mask and pad word belongs to gate i. The L
// independent ¬x_i ∧ y_i gates are one word-wide AND (still two OTs per
// bit); the LSB→MSB carry chain is still L sequential single-bit AND gates,
// depth L, walked in registers. Traffic is accounted per gate, in bulk
// (ChargeComparison), so every Stats counter is what a gate-by-gate
// evaluation would record. Each party draws its randomness a word at a time
// from its private stream: one word for its L input shares, then an output
// mask and two OT pads for the word-wide gate and again for the carry chain
// — seven draws per comparison where a bit-serial evaluation makes 14·L.
// Which random bit masks which wire differs from a bit-serial evaluation;
// the result bit and the traffic do not. The simulation caveat above is
// unchanged.
package smc

import (
	"fmt"
	"math"
	"math/rand"

	"lumos/internal/rng"
)

// Stats accumulates protocol traffic. One Stats is typically shared by all
// comparisons of an experiment run.
type Stats struct {
	Messages    int   // logical messages exchanged
	Bytes       int64 // bytes on the wire (modeled)
	OTs         int   // oblivious transfers executed
	Comparisons int   // top-level comparisons completed
}

// otWireBytes models the per-OT wire cost of an IKNP-style OT extension of
// single-bit secrets: a 128-bit column plus two masked payloads.
const otWireBytes = 18

// shareWireBytes models sending one packed share vector of L bits.
func shareWireBytes(bits int) int64 { return int64((bits + 7) / 8) }

// Party holds one participant's private randomness. In the federated
// system every device owns one Party seeded from its device id. The stream
// is seeded on the party's first draw, not by NewParty: seeding is cheap
// (rng.New, a few µs) but the seeded register is ~5 kB, and a party that
// never runs a protocol (every party of a non-secure system) keeps only its
// seed. The values drawn are exactly those of an eagerly seeded
// rand.New(rand.NewSource(seed)).
type Party struct {
	seed int64
	rng  *rand.Rand // nil until the first draw
}

// NewParty returns a Party with its own deterministic randomness stream.
func NewParty(seed int64) *Party {
	return &Party{seed: seed}
}

// stream returns the party's randomness, seeding it on first use.
func (p *Party) stream() *rand.Rand {
	if p.rng == nil {
		p.rng = rng.New(p.seed)
	}
	return p.rng
}

// obliviousTransfer executes 64 simulated 1-out-of-2 OTs of single-bit
// secrets at once, one per bit: bit i of the result is bit i of m1 where bit
// i of choice is set and bit i of m0 elsewhere; the sender learns nothing
// about choice. The sender's pads (drawn from its private randomness) model
// the masking a real OT provides. Traffic is charged per comparison by
// ChargeComparison, not here.
func obliviousTransfer(m0, m1, choice, pad0, pad1 uint64) uint64 {
	// Wire: sender transmits (m0⊕pad0, m1⊕pad1) plus the OT machinery that
	// lets the receiver unmask exactly one of them, bit by bit.
	c0, c1 := m0^pad0, m1^pad1
	return (c0^pad0)&^choice | (c1^pad1)&choice
}

// andWord evaluates 64 independent GMW AND gates, gate i on bit i of each
// share word, using two OTs per gate (one per cross term): it returns the
// shares (za, zb) of (xa⊕xb)∧(ya⊕yb), alice holding xa, ya, za.
// alice and bob are the two parties' streams.
func andWord(alice, bob *rand.Rand, xa, xb, ya, yb uint64) (za, zb uint64) {
	// x∧y = xA·yA ⊕ xA·yB ⊕ xB·yA ⊕ xB·yB.
	// Cross term xA·yB: Alice is OT sender with (s, s⊕xA); Bob selects yB.
	s1 := alice.Uint64()
	t1 := obliviousTransfer(s1, s1^xa, yb, alice.Uint64(), alice.Uint64())
	// Cross term xB·yA: Bob is OT sender with (s2, s2⊕xB); Alice selects yA.
	s2 := bob.Uint64()
	t2 := obliviousTransfer(s2, s2^xb, ya, bob.Uint64(), bob.Uint64())
	return xa&ya ^ s1 ^ t2, xb&yb ^ s2 ^ t1
}

// Protocol is a configured secure comparator.
type Protocol struct {
	// Bits is the operand width L. The paper stores degrees in L bits;
	// 32 comfortably covers any workload value in our experiments.
	Bits  int
	Stats *Stats
}

// NewProtocol returns a Protocol with the given operand width, recording
// traffic into stats (which must not be nil).
func NewProtocol(bits int, stats *Stats) *Protocol {
	if bits <= 0 || bits > 64 {
		panic(fmt.Sprintf("smc: operand width %d outside (0,64]", bits))
	}
	if stats == nil {
		panic("smc: NewProtocol needs a Stats sink")
	}
	return &Protocol{Bits: bits, Stats: stats}
}

// Less securely computes a < b where alice holds a and bob holds b. Both
// parties learn only the single result bit.
func (p *Protocol) Less(alice *Party, a uint64, bob *Party, b uint64) bool {
	p.checkRange(a)
	p.checkRange(b)
	mask := ^uint64(0) >> (64 - p.Bits)
	ar, br := alice.stream(), bob.stream()
	// Input sharing: each party draws one word of private randomness r as
	// its share of its L input bits and transmits input⊕r.
	xa := ar.Uint64() & mask
	xb := a ^ xa
	yb := br.Uint64() & mask
	ya := b ^ yb
	// Comparator, LSB → MSB:
	//   lt_i = (¬x_i ∧ y_i) ⊕ ((x_i ≡ y_i) ∧ lt_{i-1})
	// The L gates ¬x_i ∧ y_i are independent: one word-wide gate (¬ flips
	// Alice's share only).
	dA, dB := andWord(ar, br, xa^mask, xb, ya, yb)
	eqA, eqB := ^(xa ^ ya), xb^yb
	// The carry chain is L dependent AND gates. Their output masks and OT
	// pads are drawn as words up front; gate i reads bit 0 of every register
	// after i right shifts (obliviousTransfer is inlined: no call per gate).
	s1, pa0, pa1 := ar.Uint64(), ar.Uint64(), ar.Uint64()
	s2, pb0, pb1 := br.Uint64(), br.Uint64(), br.Uint64()
	var ltA, ltB uint64 // shares of lt_{i-1}, in bit 0
	for i := 0; i < p.Bits; i++ {
		// carry_i = eq_i ∧ lt_{i-1}, the cross terms' OTs as in andWord.
		t1 := obliviousTransfer(s1, s1^eqA, ltB, pa0, pa1)
		t2 := obliviousTransfer(s2, s2^eqB, ltA, pb0, pb1)
		// lt_i = diffLt_i ⊕ carry_i.
		ltA, ltB = (dA^eqA&ltA^s1^t2)&1, (dB^eqB&ltB^s2^t1)&1
		dA, dB, eqA, eqB = dA>>1, dB>>1, eqA>>1, eqB>>1
		s1, pa0, pa1 = s1>>1, pa0>>1, pa1>>1
		s2, pb0, pb1 = s2>>1, pb0>>1, pb1>>1
	}
	// Output reveal: parties exchange final shares.
	p.ChargeComparison()
	return ltA^ltB == 1
}

// ChargeComparison adds one L-bit comparison's traffic to p.Stats, gate by
// gate: each party shares its L input bits (one message per bit, one packed
// vector of ⌈L/8⌉ bytes each), each of the 2L AND gates runs two OTs, and the
// output reveal is two one-byte messages. Less charges exactly this; a caller
// that decides a comparison in plaintext charges it to price the protocol.
func (p *Protocol) ChargeComparison() {
	ots := 2 * 2 * p.Bits
	p.Stats.OTs += ots
	// Per OT: receiver selection, sender payload, key transfer.
	p.Stats.Messages += 2*p.Bits + 3*ots + 2
	p.Stats.Bytes += 2*shareWireBytes(p.Bits) + int64(ots)*otWireBytes + 2
	p.Stats.Comparisons++
}

// LessOrEqual securely computes a ≤ b (¬(b < a)).
func (p *Protocol) LessOrEqual(alice *Party, a uint64, bob *Party, b uint64) bool {
	return !p.Less(bob, b, alice, a)
}

func (p *Protocol) checkRange(v uint64) {
	if p.Bits < 64 && v >= 1<<uint(p.Bits) {
		panic(fmt.Sprintf("smc: operand %d exceeds %d-bit width", v, p.Bits))
	}
}

// ---------------------------------------------------------------------------
// Fixed-point comparison for the Metropolis-Hastings accept step
// ---------------------------------------------------------------------------

// FracBits is the fixed-point precision used when real-valued thresholds
// enter a secure comparison.
const FracBits = 16

// AcceptMH securely decides the Metropolis-Hastings acceptance
// U < e^{f(X)−f(X')} given that alice holds f(X) = fx (the current maximum
// workload) and bob holds f(X') = fy (the proposed one). Equivalent to
// deciding ln U < fx − fy, i.e. fy + lnU < fx, which is a single secure
// comparison on fixed-point operands — only the accept bit is revealed, a
// strictly smaller leak than revealing the difference itself.
//
// u must be in (0, 1]; it is drawn by the proposing device.
func (p *Protocol) AcceptMH(alice *Party, fx float64, bob *Party, fy float64, u float64) bool {
	if u <= 0 || u > 1 {
		panic(fmt.Sprintf("smc: MH uniform draw %v outside (0,1]", u))
	}
	lnU := math.Log(u) // ≤ 0
	// Compare fy + lnU < fx in fixed point. Offset both sides to stay
	// non-negative: lnU ≥ −50 in any practical draw; clamp defensively.
	if lnU < -1e6 {
		lnU = -1e6
	}
	left := fy + lnU
	right := fx
	// Shift both sides by the same offset so operands are non-negative.
	offset := 0.0
	if left < 0 {
		offset = -left
	}
	l := toFixed(left+offset, p.Bits)
	r := toFixed(right+offset, p.Bits)
	return p.Less(bob, l, alice, r)
}

func toFixed(v float64, bits int) uint64 {
	if v < 0 {
		panic(fmt.Sprintf("smc: fixed-point encode of negative %v", v))
	}
	x := v * float64(uint64(1)<<FracBits)
	limit := math.Ldexp(1, bits) - 1
	if x > limit {
		x = limit
	}
	return uint64(x)
}
