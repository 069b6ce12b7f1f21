package smc

// The bit-serial GMW evaluator: one secret-shared bit, one OT and one
// party-stream draw at a time. It is the oracle the word-parallel Less is
// tested against: same circuit, same gate count, same traffic.

func (p *Party) bit() byte { return byte(p.src.Uint64() >> 63) }

// obliviousTransferBit executes one simulated 1-out-of-2 OT of single-bit
// secrets: the receiver learns m[choice]; the sender learns nothing about
// choice. The sender's pad (drawn from its private randomness) models the
// masking a real OT provides.
func obliviousTransferBit(sender *Party, m0, m1 byte, choice byte, stats *Stats) byte {
	pad0, pad1 := sender.bit(), sender.bit()
	// Wire: sender transmits (m0⊕pad0, m1⊕pad1) plus the OT machinery that
	// lets the receiver unmask exactly one of them.
	c0, c1 := m0^pad0, m1^pad1
	stats.OTs++
	stats.Messages += 3 // receiver selection, sender payload, key transfer
	stats.Bytes += otWireBytes
	if choice == 0 {
		return c0 ^ pad0
	}
	return c1 ^ pad1
}

// sharedBit is one GF(2) secret-shared bit: value = a ^ b, with a held by
// Alice and b by Bob.
type sharedBit struct{ a, b byte }

// xor is the free local XOR gate.
func (x sharedBit) xor(y sharedBit) sharedBit { return sharedBit{x.a ^ y.a, x.b ^ y.b} }

// notBit flips the plaintext by flipping Alice's share only.
func (x sharedBit) notBit() sharedBit { return sharedBit{x.a ^ 1, x.b} }

// and evaluates a GMW AND gate using two OTs (one per cross term).
func andGate(alice, bob *Party, x, y sharedBit, stats *Stats) sharedBit {
	// x∧y = xA·yA ⊕ xA·yB ⊕ xB·yA ⊕ xB·yB.
	// Cross term xA·yB: Alice is OT sender with (s, s⊕xA); Bob selects yB.
	s1 := alice.bit()
	t1 := obliviousTransferBit(alice, s1, s1^x.a, y.b, stats)
	// Cross term xB·yA: Bob is OT sender with (s2, s2⊕xB); Alice selects yA.
	s2 := bob.bit()
	t2 := obliviousTransferBit(bob, s2, s2^x.b, y.a, stats)
	return sharedBit{
		a: (x.a & y.a) ^ s1 ^ t2,
		b: (x.b & y.b) ^ s2 ^ t1,
	}
}

// shareInput secret-shares owner's bit with the counterpart: the owner
// draws a random mask r (its share) and transmits value⊕r.
func shareInput(owner *Party, value byte, ownerIsAlice bool, stats *Stats) sharedBit {
	r := owner.bit()
	stats.Messages++
	if ownerIsAlice {
		return sharedBit{a: r, b: value ^ r}
	}
	return sharedBit{a: value ^ r, b: r}
}

// lessOracle is the bit-serial Less: it evaluates the comparator circuit one
// gate at a time and charges every message as it is sent.
func (p *Protocol) lessOracle(alice *Party, a uint64, bob *Party, b uint64) bool {
	p.checkRange(a)
	p.checkRange(b)
	// Input sharing: each party shares its L input bits (one packed message).
	p.Stats.Bytes += 2 * shareWireBytes(p.Bits)
	xs := make([]sharedBit, p.Bits)
	ys := make([]sharedBit, p.Bits)
	for i := 0; i < p.Bits; i++ {
		xs[i] = shareInput(alice, byte(a>>uint(i))&1, true, p.Stats)
		ys[i] = shareInput(bob, byte(b>>uint(i))&1, false, p.Stats)
	}
	// Bit-serial comparator, LSB → MSB:
	//   lt_i = (¬x_i ∧ y_i) ⊕ ((x_i ≡ y_i) ∧ lt_{i-1})
	lt := sharedBit{}
	for i := 0; i < p.Bits; i++ {
		diffLt := andGate(alice, bob, xs[i].notBit(), ys[i], p.Stats)
		eq := xs[i].xor(ys[i]).notBit()
		carry := andGate(alice, bob, eq, lt, p.Stats)
		lt = diffLt.xor(carry)
	}
	// Output reveal: parties exchange final shares.
	p.Stats.Messages += 2
	p.Stats.Bytes += 2
	p.Stats.Comparisons++
	return lt.a^lt.b == 1
}
