package sim

import (
	"fmt"
	"strings"

	"lumos/internal/fleet"
	"lumos/internal/rng"
)

// Profile is one device's capacity relative to the nominal device of the
// analytic cost model — defined in internal/fleet, the single source of
// device-population truth, and aliased here for the simulator's callers.
type Profile = fleet.Profile

// Fleet names a device-profile distribution.
type Fleet string

const (
	// FleetUniform gives every device the nominal profile; heterogeneity
	// comes only from workloads and churn.
	FleetUniform Fleet = "uniform"
	// FleetZipf draws compute-speed multipliers from a zipf-like rank
	// distribution (median device ≈ nominal, heavy straggler tail), with
	// bandwidth and latency degrading alongside compute.
	FleetZipf Fleet = "zipf"
	// FleetPeriodic gives nominal capacity but a periodic availability
	// cycle (randomized phase per device), modeling diurnal on/off
	// behavior; the cycle replaces the scenario's churn process. (This was
	// named "trace" before file-driven traces existed.)
	FleetPeriodic Fleet = "periodic"
	// FleetTrace loads per-device profiles — capacity, power, availability
	// cycles — from a trace file (fleet.LoadTrace, FedScale-style schema)
	// supplied via Scenario.Trace. It requires a trace source: a scenario
	// naming FleetTrace with a nil Trace fails validation instead of
	// silently falling back to a synthetic fleet.
	FleetTrace Fleet = "trace"
)

// ParseFleet parses a fleet name as used in CLI flags. The "trace" fleet
// additionally needs a trace source (see ParseFleetSpec for the
// "trace:<path>" form that names one).
func ParseFleet(name string) (Fleet, error) {
	switch Fleet(name) {
	case FleetUniform, FleetZipf, FleetPeriodic, FleetTrace:
		return Fleet(name), nil
	default:
		return "", fmt.Errorf("sim: unknown fleet %q (want uniform|zipf|periodic|trace:<path>)", name)
	}
}

// ParseFleetSpec parses a CLI fleet spec, which extends the fleet names
// with the trace form "trace:<path>". A bare "trace" is rejected with a
// pointer at the path form — the trace fleet has no synthetic fallback.
func ParseFleetSpec(spec string) (Fleet, string, error) {
	if path, ok := strings.CutPrefix(spec, "trace:"); ok {
		if path == "" {
			return "", "", fmt.Errorf("sim: empty trace path in fleet spec %q", spec)
		}
		return FleetTrace, path, nil
	}
	f, err := ParseFleet(spec)
	if err != nil {
		return "", "", err
	}
	if f == FleetTrace {
		return "", "", fmt.Errorf("sim: fleet %q needs a trace source: use trace:<path> (generate one with lumos-datagen -traces), or the periodic fleet for a synthetic availability cycle", spec)
	}
	return f, "", nil
}

// Source resolves the scenario's fleet to its fleet.Fleet implementation —
// the single construction path for synthetic and trace-driven populations.
func (sc *Scenario) Source() (fleet.Fleet, error) {
	switch sc.Fleet {
	case FleetUniform:
		return fleet.Uniform(), nil
	case FleetZipf:
		return fleet.Zipf(sc.ZipfSkew), nil
	case FleetPeriodic:
		return fleet.Periodic(sc.TracePeriod, sc.TraceDuty), nil
	case FleetTrace:
		if sc.Trace == nil {
			return nil, fmt.Errorf("sim: trace fleet needs a trace source: set Scenario.Trace (fleet.LoadTrace) or pass -fleet trace:<path>; use the periodic fleet for a synthetic availability cycle")
		}
		return sc.Trace, nil
	default:
		return nil, fmt.Errorf("sim: unknown fleet %q", sc.Fleet)
	}
}

// BuildProfiles draws n device profiles from the scenario's fleet,
// deterministically from the scenario seed (ranks and phases are assigned
// by a seeded permutation, so device 0 is not always the straggler).
func BuildProfiles(sc Scenario, n int) ([]Profile, error) {
	src, err := sc.Source()
	if err != nil {
		return nil, err
	}
	return src.Profiles(n, rng.Derive(sc.Seed, rng.Profiles, 0))
}
