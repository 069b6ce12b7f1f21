package rng

import (
	"fmt"
	"math"
	"testing"
)

// legacySeeds is each stream's seed expression as its site wrote it out by
// hand before the rule moved into Derive. Keep these literals: they are
// what every recorded golden was seeded with.
var legacySeeds = map[Role]func(seed int64, v int) int64{
	Device:          func(seed int64, v int) int64 { return seed ^ int64(v)*0x1e3779b97f4a7c15 },
	SMCParty:        func(seed int64, v int) int64 { return seed ^ int64(v+1)*0x6a09e667f3bcc90 },
	Server:          func(seed int64, _ int) int64 { return seed ^ 0x5bf0a8b145769231 },
	Proposals:       func(seed int64, _ int) int64 { return seed ^ 0x42616c616e636572 },
	Model:           func(seed int64, _ int) int64 { return seed ^ 0x6d6f64656c },
	Dropout:         func(seed int64, i int) int64 { return seed ^ (int64(i+1) * 0x1f3d5b79a7c6e42d) },
	Churn:           func(seed int64, _ int) int64 { return seed ^ 0x636875726e },
	Participation:   func(seed int64, _ int) int64 { return seed ^ 0x73616d706c65 },
	Profiles:        func(seed int64, _ int) int64 { return seed ^ 0x70726f66696c6573 },
	KRegular:        func(seed int64, _ int) int64 { return seed ^ 0x6b726567 },
	BarabasiAlbert:  func(seed int64, _ int) int64 { return seed ^ 0x62616c62 },
	LPGNN:           func(seed int64, _ int) int64 { return seed ^ 0x6c70676e6e },
	NaiveFed:        func(seed int64, _ int) int64 { return seed ^ 0x6e616976 },
	BaselineModel:   func(seed int64, _ int) int64 { return seed ^ 0x62617365 },
	CentralizedLink: func(seed int64, _ int) int64 { return seed ^ 0x6c696e6b },
	NodeSplit:       func(seed int64, _ int) int64 { return seed ^ 1 },
	EdgeSplit:       func(seed int64, _ int) int64 { return seed ^ 2 },
}

func TestDeriveMatchesLegacySeeds(t *testing.T) {
	if len(legacySeeds) != len(roles) {
		t.Fatalf("%d legacy expressions for %d roles", len(legacySeeds), len(roles))
	}
	for role, legacy := range legacySeeds {
		for _, seed := range []int64{-7, 0, 1, 7, 11, math.MinInt64, math.MaxInt64} {
			for _, id := range []int{0, 1, 2, 561, 22469} {
				if got, want := Derive(seed, role, id), legacy(seed, id); got != want {
					t.Errorf("role %d, seed %d, id %d: Derive = %#x, legacy %#x", role, seed, id, got, want)
				}
			}
		}
	}
	s := Stream(7, Dropout, 3)
	want := New(Derive(7, Dropout, 3))
	for d := range 100 {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("Stream draw %d = %#x, New(Derive) %#x", d, g, w)
		}
	}
}

// streamsN is the full Facebook graph's device count, which bounds the
// shard count too.
const streamsN = 22470

// knownAliases returns the coincidences between streams of the run seeded
// with seed that the seed rule is known to produce, each named "a = b" as
// TestStreamsDistinct reports it. Device 0's seed is seed ^ 0·mul, the root
// seed itself, on every seed. At seed 5 the two per-id roles meet once by
// chance: about 45 000 draws in 2³¹−1 reduced seeds expect ~0.5 collisions
// a seed.
func knownAliases(seed int64) map[string]bool {
	known := map[string]bool{"device 0 = root": true}
	if seed == 5 {
		known["dropout 8955 = device 16967"] = true
	}
	return known
}

// TestStreamsDistinct checks that no two math/rand streams of a run share
// a generator state, at full Facebook size, apart from knownAliases: two
// seeds give one stream when they agree modulo 2³¹−1 (reduce), not only
// when they are equal. SMC parties seed a PCG with all 64 bits, so theirs
// must differ as 64-bit values.
func TestStreamsDistinct(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 7, 11} {
		seen := make(map[uint64]string, 2*streamsN+len(roles))
		known, aliases := knownAliases(seed), map[string]bool{}
		add := func(name string, s int64) {
			x := reduce(s)
			if prev, ok := seen[x]; ok {
				alias := name + " = " + prev
				if !known[alias] {
					t.Errorf("seed %d: %s: both reduce to %d", seed, alias, x)
				}
				aliases[alias] = true
				return
			}
			seen[x] = name
		}
		add("root", seed)
		for role := range Role(len(roles)) {
			switch {
			case role == SMCParty:
			case roles[role].mul != 0: // one stream per device or shard
				for id := range streamsN {
					add(fmt.Sprintf("%s %d", roleName(role), id), Derive(seed, role, id))
				}
			default:
				add(roleName(role), Derive(seed, role, 0))
			}
		}
		for alias := range known {
			if !aliases[alias] {
				t.Errorf("seed %d: known alias %q no longer holds; drop it from knownAliases and the docs that state it", seed, alias)
			}
		}

		parties := make(map[int64]int, streamsN)
		for id := range streamsN {
			s := Derive(seed, SMCParty, id)
			if prev, ok := parties[s]; ok {
				t.Errorf("seed %d: SMC parties %d and %d share seed %#x", seed, prev, id, s)
			}
			parties[s] = id
		}
	}
}

// roleName is how TestStreamsDistinct names a role.
func roleName(r Role) string {
	return [...]string{
		Device: "device", SMCParty: "party", Server: "server", Proposals: "proposals",
		Model: "model", Dropout: "dropout", Churn: "churn", Participation: "participation",
		Profiles: "profiles", KRegular: "k-regular", BarabasiAlbert: "barabasi-albert",
		LPGNN: "lpgnn", NaiveFed: "naive-fed", BaselineModel: "baseline-model",
		CentralizedLink: "centralized-link", NodeSplit: "node-split", EdgeSplit: "edge-split",
	}[r]
}
