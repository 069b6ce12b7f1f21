package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed reduction branches: zero
// and the seed it is replaced by, ±1, multiples and neighbours of 2³¹−1,
// the int64 extremes and large powers of two.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	mod31, -mod31, mod31 - 1, -(mod31 - 1), mod31 + 1, 2 * mod31, -2 * mod31,
	1<<31 + 4, 1 << 31, -(1 << 31), 1 << 32,
	1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	zeroSeed, -zeroSeed,
}

// testSeeds returns edgeSeeds plus n seeds drawn over the whole int64 range.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20231018))
	for range n {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// draws covers more than two turns of the 607-word register.
const draws = 1300

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(1000) {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for d := range draws {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, d, g, w)
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, d, g, w)
			}
		}

		// The derived draws go through rand.Rand, which reads the source's
		// Uint64 and Int63; compare them interleaved so any divergence in
		// how many raw values each consumes shows too.
		wr, gr := rand.New(rand.NewSource(seed)), New(seed)
		for d := range draws / 10 {
			if w, g := wr.Float64(), gr.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, d, g, w)
			}
			if w, g := wr.Intn(1000003), gr.Intn(1000003); w != g {
				t.Fatalf("seed %d: Intn draw %d = %d, math/rand %d", seed, d, g, w)
			}
			if w, g := wr.NormFloat64(), gr.NormFloat64(); w != g {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, d, g, w)
			}
			if w, g := wr.Uint64(), gr.Uint64(); w != g {
				t.Fatalf("seed %d: Rand.Uint64 draw %d = %#x, math/rand %#x", seed, d, g, w)
			}
		}
		wp, gp := wr.Perm(97), gr.Perm(97)
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("seed %d: Perm(97)[%d] = %d, math/rand %d", seed, i, gp[i], wp[i])
			}
		}
	}
}

func TestSourceReseed(t *testing.T) {
	for _, seed := range testSeeds(50) {
		used := NewSource(seed ^ 0x5eed)
		for range 1000 {
			used.Uint64()
		}
		used.Seed(seed)
		fresh := NewSource(seed)
		want := rand.NewSource(seed ^ 0x5eed)
		want.Seed(seed)
		for d := range draws {
			u, f, w := used.Uint64(), fresh.Uint64(), uint64(want.Int63())
			if u != f {
				t.Fatalf("seed %d: reseeded draw %d = %#x, fresh source %#x", seed, d, u, f)
			}
			if u&(1<<63-1) != w {
				t.Fatalf("seed %d: reseeded draw %d = %#x, reseeded math/rand %#x", seed, d, u, w)
			}
		}
	}
}

var sink uint64

// BenchmarkSeed compares seeding one source: math/rand's serial chain
// against the table of powers.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		var seed int64
		for b.Loop() {
			seed++
			sink += uint64(rand.NewSource(seed).Int63())
		}
	})
	b.Run("rng", func(b *testing.B) {
		var seed int64
		for b.Loop() {
			seed++
			sink += uint64(NewSource(seed).Int63())
		}
	})
}

// BenchmarkInt63 compares one draw through the rand.Source interface.
func BenchmarkInt63(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(1)},
		{"rng", NewSource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			src := c.src
			var acc int64
			for b.Loop() {
				acc += src.Int63()
			}
			sink += uint64(acc)
		})
	}
}
