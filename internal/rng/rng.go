// Package rng is the seeded randomness behind every device, shard and party
// stream: math/rand's own generator, seeded without math/rand's serial chain.
//
// NewSource(seed) produces exactly the stream of math/rand.NewSource(seed),
// for every int64 seed, draw for draw, including after Seed on a used source
// (TestSourceMatchesMathRand, TestSourceReseed). Nothing about a stream
// changes; only its set-up cost does.
//
// Why it exists. Lumos gives every device private randomness (LDP noise,
// SMC pads) and the engine one dropout stream per shard, so a system of N
// devices seeds about 2N sources before it trains. math/rand's generator is
// a 607-word additive lagged Fibonacci register, and seeding fills it from
// 1 841 steps of the Park–Miller generator x ← 48271·x mod (2³¹−1), each
// step waiting on the one before it. Here the n-th Park–Miller value is
// computed directly as 48271ⁿ·x₀ mod (2³¹−1) from a table of powers built
// once: 1 821 independent products, each folded modulo the Mersenne prime
// without a division, which the CPU can overlap. A seed costs ~3.2 µs
// against math/rand's ~13.5 µs (BenchmarkSeed, one core of a 2-vCPU VM).
//
// The register's seeding constants ("cooked" values) are not copied from
// the standard library. init recovers them from the first 607 outputs of one
// math/rand reference source, so this package and math/rand cannot drift
// apart unnoticed: the equality test compares the two over many seeds.
//
// Draws (Uint64, Int63) are the standard library's two-index add, so a
// draw costs what it costs through math/rand.
package rng

import "math/rand"

const (
	regLen = 607       // register length (math/rand rngLen)
	regTap = 273       // lag of the second tap (math/rand rngTap)
	mod31  = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	mult   = 48271     // Park–Miller multiplier
	skip   = 20        // Park–Miller steps discarded before word 0

	// zeroSeed replaces a seed ≡ 0 mod 2³¹−1, as math/rand does.
	zeroSeed = 89482311
	// refSeed seeds the math/rand source init reads the cooked values from.
	refSeed = 1
)

var (
	// pow[i][j] = 48271ⁿ mod (2³¹−1) for n = 21+3i+j: the powers that
	// register word i's three Park–Miller values take from x₀.
	pow [regLen][3]uint64
	// cooked[i] is XORed into register word i after seeding, as math/rand's
	// rngCooked is.
	cooked [regLen]uint64
)

func init() {
	p := uint64(1)
	for range skip + 1 {
		p = fold(p * mult)
	}
	for i := range pow {
		for j := range pow[i] {
			pow[i][j] = p
			p = fold(p * mult)
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads math/rand's seeding constants back from the first 607
// outputs o₁…o₆₀₇ of one math/rand source. Before its first draw the source
// holds v = fill(x₀(refSeed), cooked) with the feed index at 334 and the
// tap at 0; draw k adds the tap word into the feed word and returns it.
// Working back (mod 2⁶⁴): draws 274…607 read a tap word written by draw
// k−273, which yields register words 0…60 and 334…606; draws 1…273 read
// original tap words 334…606, which yields words 61…333.
func recoverCooked() [regLen]uint64 {
	ref := rand.NewSource(refSeed).(rand.Source64)
	var o [regLen + 1]uint64 // o[k] is the k-th output, 1-based
	for k := 1; k <= regLen; k++ {
		o[k] = ref.Uint64()
	}
	var v [regLen]uint64
	for k := regTap + 1; k <= regLen-regTap; k++ { // 274…334
		v[regLen-regTap-k] = o[k] - o[k-regTap]
	}
	for k := regLen - regTap + 1; k <= regLen; k++ { // 335…607
		v[2*regLen-regTap-k] = o[k] - o[k-regTap]
	}
	for k := 1; k <= regTap; k++ { // 1…273
		v[regLen-regTap-k] = o[k] - v[regLen-k]
	}
	var c [regLen]uint64
	fill(&c, reduce(refSeed), &v)
	return c
}

// fold returns a·b mod (2³¹−1) given p = a·b for a, b ∈ [1, 2³¹−2], without
// a division or a branch. The first fold leaves a value below 2³²−2, the
// second one at most 2³¹−1; that bound is reached only by a multiple of the
// prime, which a product of two nonzero residues is not.
func fold(p uint64) uint64 {
	p = p&mod31 + p>>31
	return p&mod31 + p>>31
}

// reduce maps a seed to the Park–Miller start value x₀ ∈ [1, 2³¹−2] exactly
// as math/rand's Seed does.
func reduce(seed int64) uint64 {
	seed %= mod31
	if seed < 0 {
		seed += mod31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// fill sets dst[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ mask[i], with
// xₙ = 48271ⁿ·x₀ mod (2³¹−1): math/rand's seeded register word i when mask
// is cooked.
func fill(dst *[regLen]uint64, x0 uint64, mask *[regLen]uint64) {
	for i := range pow {
		p := &pow[i]
		dst[i] = fold(p[0]*x0)<<40 ^ fold(p[1]*x0)<<20 ^ fold(p[2]*x0) ^ mask[i]
	}
}

// Source is math/rand's generator. It implements rand.Source64 and is not
// safe for concurrent use, like the source math/rand.NewSource returns.
type Source struct {
	tap  int
	feed int
	vec  [regLen]uint64
}

// NewSource returns a Source seeded with seed: the stream of
// math/rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns rand.New(NewSource(seed)): the draws of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed resets the source to the state NewSource(seed) returns.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = regLen - regTap
	fill(&s.vec, reduce(seed), &cooked)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
