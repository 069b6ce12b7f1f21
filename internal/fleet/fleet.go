// Package fleet is the single source of device-population truth for the
// scenario simulator: it defines the per-device capacity Profile, the Fleet
// interface that turns a population description into n concrete profiles,
// the synthetic fleets (uniform, zipf, periodic availability), the
// trace-ingestion layer that loads FedScale-style per-device traces from
// CSV/JSON files (see Trace), and the deterministic M/G/1-style FIFO server
// that models uplink/downlink contention at the aggregator (see Server).
//
// internal/sim builds every fleet through this package, so synthetic and
// trace-driven populations flow through one code path, and the simulator's
// determinism contract extends to all of them: Profiles draws every random
// choice from the seed it is handed, with a fixed consumption pattern, so
// the same seed reproduces the identical fleet.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
)

// Profile is one device's capacity relative to the nominal device of the
// analytic cost model: multipliers scale fed.CostModel's compute, bandwidth,
// latency, and power terms, so the cost model stays the single source of
// per-event costs and energy while the fleet becomes heterogeneous.
type Profile struct {
	// Compute is the compute-time multiplier (1 = nominal, 2 = twice as
	// slow).
	Compute float64
	// Bandwidth is the link-bandwidth multiplier (1 = nominal, 0.5 = half
	// the bytes per second).
	Bandwidth float64
	// Latency is the one-way message-latency multiplier.
	Latency float64
	// Power is the active-compute power multiplier over the cost model's
	// nominal device wattage (1 = nominal). A fast, power-hungry device has
	// Compute < 1 and Power > 1.
	Power float64
	// Period/OnRounds/Phase describe a periodic availability trace
	// (Period 0 means always available): the device is online in round r
	// iff (r+Phase) mod Period < OnRounds.
	Period   int
	OnRounds int
	Phase    int
}

// OnlineAt reports the profile's trace availability for round r. Profiles
// without a trace (Period 0) are always online; their availability is then
// governed by the scenario's churn process instead.
func (p Profile) OnlineAt(r int) bool {
	if p.Period <= 0 {
		return true
	}
	return (r+p.Phase)%p.Period < p.OnRounds
}

// MaxPeriod bounds an availability cycle's length in rounds. It keeps every
// cycle inside a 32-bit int, so OnlineAt's r+Phase cannot overflow.
const MaxPeriod = math.MaxInt32

// Validate rejects capacity multipliers that are not finite and positive,
// and malformed availability cycles — the guard every trace record passes
// through on load.
func (p Profile) Validate() error {
	for _, m := range [...]float64{p.Compute, p.Bandwidth, p.Latency, p.Power} {
		if !(m > 0) || math.IsInf(m, 1) {
			return fmt.Errorf("fleet: profile multipliers must be finite and positive, got compute=%v bandwidth=%v latency=%v power=%v (a trace record omitting a column loads as 0)", p.Compute, p.Bandwidth, p.Latency, p.Power)
		}
	}
	if p.Period < 0 || p.Period > MaxPeriod {
		return fmt.Errorf("fleet: availability period %d outside [0,%d]", p.Period, MaxPeriod)
	}
	if p.Period > 0 {
		if p.OnRounds < 1 || p.OnRounds > p.Period {
			return fmt.Errorf("fleet: %d online rounds outside [1,%d]", p.OnRounds, p.Period)
		}
		if p.Phase < 0 || p.Phase >= p.Period {
			return fmt.Errorf("fleet: phase %d outside [0,%d)", p.Phase, p.Period)
		}
	} else if p.OnRounds != 0 || p.Phase != 0 {
		return fmt.Errorf("fleet: on_rounds/phase set without a period")
	}
	return nil
}

// Nominal is the reference device: unit multipliers, always available.
func Nominal() Profile {
	return Profile{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1}
}

// Fleet turns a device-population description into n concrete profiles. All
// randomness must derive from the given seed with a fixed consumption
// pattern, so a fleet is a pure function of (n, seed) — the simulator's
// bit-reproducibility depends on it.
type Fleet interface {
	// String labels the fleet for tables and logs.
	String() string
	// Profiles draws n device profiles deterministically from the seed.
	Profiles(n int, seed int64) ([]Profile, error)
}

// Uniform gives every device the nominal profile; heterogeneity comes only
// from workloads and churn.
func Uniform() Fleet { return uniform{} }

type uniform struct{}

func (uniform) String() string { return "uniform" }

func (uniform) Profiles(n int, seed int64) ([]Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: fleet of %d devices", n)
	}
	out := make([]Profile, n)
	for d := range out {
		out[d] = Nominal()
	}
	return out, nil
}

// zipfComputeFloor keeps the fastest zipf devices within a plausible range
// of the nominal device instead of letting the rank formula shrink them
// toward zero compute time.
const zipfComputeFloor = 0.25

// Zipf draws compute-speed multipliers from a zipf-like rank distribution
// (median device ≈ nominal, heavy straggler tail), with bandwidth and
// latency degrading alongside compute. Rank r (0 = fastest) gets compute
// multiplier ((r+1)/((n+1)/2))^skew, so the slowest device is ≈ 2^skew ×
// the median; ranks are assigned by a seeded permutation, so device 0 is
// not always the straggler.
func Zipf(skew float64) Fleet { return zipf{skew: skew} }

type zipf struct{ skew float64 }

func (zipf) String() string { return "zipf" }

func (z zipf) Profiles(n int, seed int64) ([]Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: fleet of %d devices", n)
	}
	if z.skew < 0 {
		return nil, fmt.Errorf("fleet: negative zipf skew %v", z.skew)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Profile, n)
	perm := rng.Perm(n)
	for rank, d := range perm {
		rel := float64(rank+1) / (float64(n+1) / 2)
		mult := math.Pow(rel, z.skew)
		if mult < zipfComputeFloor {
			mult = zipfComputeFloor
		}
		out[d] = Profile{
			Compute:   mult,
			Bandwidth: 1 / math.Sqrt(mult),
			Latency:   math.Sqrt(mult),
			Power:     1,
		}
	}
	return out, nil
}

// Periodic gives nominal capacity but a periodic availability cycle
// (randomized phase per device), modeling diurnal on/off behavior; the
// cycle replaces the scenario's churn process. Each device is online
// duty·period of every period rounds.
func Periodic(period int, duty float64) Fleet {
	return periodic{period: period, duty: duty}
}

type periodic struct {
	period int
	duty   float64
}

func (periodic) String() string { return "periodic" }

func (p periodic) Profiles(n int, seed int64) ([]Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: fleet of %d devices", n)
	}
	if p.period < 1 {
		return nil, fmt.Errorf("fleet: availability period %d below 1 round", p.period)
	}
	if p.duty <= 0 || p.duty > 1 {
		return nil, fmt.Errorf("fleet: duty %v outside (0,1]", p.duty)
	}
	on := int(math.Round(p.duty * float64(p.period)))
	if on < 1 {
		on = 1
	}
	if on > p.period {
		on = p.period
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Profile, n)
	for d := range out {
		out[d] = Profile{
			Compute: 1, Bandwidth: 1, Latency: 1, Power: 1,
			Period: p.period, OnRounds: on, Phase: rng.Intn(p.period),
		}
	}
	return out, nil
}
