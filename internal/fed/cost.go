package fed

import (
	"fmt"
	"time"
)

// CostModel captures the per-device compute and network timing used to
// estimate epoch wall time. Lumos is a synchronous framework: every round
// waits for all devices, so the epoch time is dominated by the straggler —
// the device with the largest tree (paper Definition 3 and §VIII-F.3).
type CostModel struct {
	// PerLeafPair is the compute time one leaf pair adds to a device's
	// forward+backward pass (its tree has 3·wl+1 nodes, so cost grows
	// linearly in the workload wl).
	PerLeafPair time.Duration
	// BaseCompute is the fixed per-device cost per epoch (root handling,
	// loss computation, optimizer step).
	BaseCompute time.Duration
	// MsgLatency is the one-way latency of an inter-device message.
	MsgLatency time.Duration
	// BytesPerSecond is the per-device link bandwidth.
	BytesPerSecond float64
	// AggBytesPerSecond is the aggregator's shared uplink/downlink capacity:
	// device uploads and model broadcasts serialize through an M/G/1-style
	// FIFO server at this rate (see fleet.Server), so large-fleet commit
	// times reflect contention at the server instead of independent links.
	// Zero (the default) disables contention — infinite aggregator capacity.
	AggBytesPerSecond float64
	// DevicePowerWatts is the nominal device's active power draw during
	// local compute; a Profile's Power multiplier scales it per device.
	DevicePowerWatts float64
	// RadioEnergyPerByte is the energy a device spends moving one byte over
	// its radio, in joules — uploads and model downloads both pay it.
	RadioEnergyPerByte float64
}

// DefaultCostModel models commodity edge devices on a home network; values
// chosen so full-scale estimates land in the paper's tens-of-seconds regime.
func DefaultCostModel() CostModel {
	return CostModel{
		PerLeafPair:    600 * time.Microsecond,
		BaseCompute:    5 * time.Millisecond,
		MsgLatency:     2 * time.Millisecond,
		BytesPerSecond: 12.5e6, // 100 Mbit/s
		// AggBytesPerSecond stays 0: contention off unless a scenario asks
		// for it, preserving the independent-link timing model.
		DevicePowerWatts:   2,    // active SoC draw of a mid-range phone
		RadioEnergyPerByte: 5e-8, // ≈50 nJ/B, WiFi-class radio
	}
}

// Validate rejects non-positive capacity and negative timing terms.
func (c CostModel) Validate() error {
	if c.BytesPerSecond <= 0 {
		return fmt.Errorf("fed: cost model bandwidth must be positive, got %v", c.BytesPerSecond)
	}
	if c.PerLeafPair < 0 {
		return fmt.Errorf("fed: cost model PerLeafPair must be non-negative, got %v", c.PerLeafPair)
	}
	if c.BaseCompute < 0 {
		return fmt.Errorf("fed: cost model BaseCompute must be non-negative, got %v", c.BaseCompute)
	}
	if c.MsgLatency < 0 {
		return fmt.Errorf("fed: cost model MsgLatency must be non-negative, got %v", c.MsgLatency)
	}
	if c.AggBytesPerSecond < 0 {
		return fmt.Errorf("fed: cost model AggBytesPerSecond must be non-negative (0 disables contention), got %v", c.AggBytesPerSecond)
	}
	if c.DevicePowerWatts < 0 {
		return fmt.Errorf("fed: cost model DevicePowerWatts must be non-negative, got %v", c.DevicePowerWatts)
	}
	if c.RadioEnergyPerByte < 0 {
		return fmt.Errorf("fed: cost model RadioEnergyPerByte must be non-negative, got %v", c.RadioEnergyPerByte)
	}
	return nil
}

// Energy is one device's energy spend for a round, in joules: active
// compute time at the device's (profile-scaled) power draw plus every byte
// it moved over the radio. This is the per-device term the simulator
// accumulates into RoundStats and the energy-study tables.
func (c CostModel) Energy(computeSeconds, powerMult float64, radioBytes int64) float64 {
	return computeSeconds*c.DevicePowerWatts*powerMult + float64(radioBytes)*c.RadioEnergyPerByte
}

// LinkBytesPerSecond is the effective rate of a direct device-to-device link
// whose endpoints carry bandwidth multipliers bwA and bwB: the nominal
// per-device rate scaled by the bottleneck endpoint. Gossip scheduling prices
// each contact-graph edge with it.
func (c CostModel) LinkBytesPerSecond(bwA, bwB float64) float64 {
	if bwB < bwA {
		bwA = bwB
	}
	return c.BytesPerSecond * bwA
}

// EpochTime estimates one synchronous epoch's wall time:
//
//	max_v(compute_v) + latency·(serial message rounds) + bytes/bandwidth
//
// workloads are the per-device retained-neighbor counts; rounds is the
// number of serialized message rounds in the epoch (not total messages —
// messages within a round travel in parallel); deviceBytes is what one
// device moves in the epoch. The epoch trainers pass the mean device's bytes
// (an epoch's bytes over N, the largest over the epochs), not the busiest's.
func (c CostModel) EpochTime(workloads []int, rounds int, deviceBytes int64) time.Duration {
	maxWl := 0
	for _, w := range workloads {
		if w > maxWl {
			maxWl = w
		}
	}
	compute := c.BaseCompute + time.Duration(float64(maxWl)*float64(c.PerLeafPair))
	comm := time.Duration(rounds) * c.MsgLatency
	transfer := time.Duration(float64(deviceBytes) / c.BytesPerSecond * float64(time.Second))
	return compute + comm + transfer
}
