package fed

import (
	"reflect"
	"testing"
	"time"

	"lumos/internal/graph"
	"lumos/internal/smc"
)

func TestNetworkAccounting(t *testing.T) {
	nw := NewNetwork(4)
	nw.Send(0, 1, MsgEmbedding, 128)
	nw.Send(1, 2, MsgEmbedding, 128)
	nw.Send(2, ServerID, MsgControl, 8)
	nw.Send(ServerID, 3, MsgControl, 8)
	tr := nw.Snapshot()
	if tr.Messages[MsgEmbedding] != 2 || tr.Bytes[MsgEmbedding] != 256 {
		t.Fatalf("embedding accounting: %v", tr.Messages)
	}
	if tr.Messages[MsgControl] != 2 {
		t.Fatal("control accounting wrong")
	}
	// Server sends don't count toward a device.
	if tr.PerDeviceSent[3] != 0 || tr.PerDeviceSent[0] != 1 {
		t.Fatalf("per-device counts: %v", tr.PerDeviceSent)
	}
	if got := tr.TotalMessages(); got != 4 {
		t.Fatalf("total = %d", got)
	}
	if got := tr.TotalBytes(); got != 272 {
		t.Fatalf("total bytes = %d", got)
	}
	if avg := tr.AvgPerDevice(); avg != 3.0/4 {
		t.Fatalf("avg per device = %v", avg)
	}
}

// SendN leaves the Traffic that n Sends leave, for device and server
// senders and receivers, and for n = 0.
func TestSendNMatchesSends(t *testing.T) {
	cases := []struct {
		from, to int
		kind     MessageKind
		n, bytes int
	}{
		{ServerID, ServerID, MsgControl, 65635, 16},
		{0, 2, MsgEmbedding, 7, 128},
		{2, ServerID, MsgGradient, 3, 100},
		{ServerID, 1, MsgNegSample, 5, 0},
		{1, 0, MsgLoss, 0, 8},
	}
	one, batched := NewNetwork(3), NewNetwork(3)
	for _, c := range cases {
		for i := 0; i < c.n; i++ {
			one.Send(c.from, c.to, c.kind, c.bytes)
		}
		batched.SendN(c.from, c.to, c.kind, c.n, c.bytes)
		if want, got := one.Snapshot(), batched.Snapshot(); !reflect.DeepEqual(want, got) {
			t.Fatalf("after %+v: SendN left %+v, Sends left %+v", c, got, want)
		}
	}
}

func TestNetworkDiffAndReset(t *testing.T) {
	nw := NewNetwork(2)
	nw.Send(0, 1, MsgLoss, 8)
	snap := nw.Snapshot()
	nw.Send(1, 0, MsgLoss, 8)
	nw.Send(1, 0, MsgGradient, 100)
	d := nw.Diff(snap)
	if d.Messages[MsgLoss] != 1 || d.Messages[MsgGradient] != 1 {
		t.Fatalf("diff = %v", d.Messages)
	}
	if d.PerDeviceSent[1] != 2 || d.PerDeviceSent[0] != 0 {
		t.Fatalf("diff per-device = %v", d.PerDeviceSent)
	}
}

func TestNetworkAbsorbSecure(t *testing.T) {
	nw := NewNetwork(2)
	nw.AbsorbSecure(smc.Stats{Messages: 10, Bytes: 500})
	tr := nw.Snapshot()
	if tr.Messages[MsgSecure] != 10 || tr.Bytes[MsgSecure] != 500 {
		t.Fatal("secure traffic not absorbed")
	}
}

func TestNetworkValidation(t *testing.T) {
	nw := NewNetwork(2)
	for _, c := range []struct{ from, to, kind int }{
		{5, 0, int(MsgLoss)}, {0, 5, int(MsgLoss)}, {0, 1, 99},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %+v must panic", c)
				}
			}()
			nw.Send(c.from, c.to, MessageKind(c.kind), 1)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative message count must panic")
		}
	}()
	nw.SendN(0, 1, MsgLoss, -1, 8)
}

func TestMessageKindString(t *testing.T) {
	if MsgFeature.String() != "feature" || MsgSecure.String() != "secure" {
		t.Fatal("kind names wrong")
	}
	if MessageKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestNewDevicesIndependentRandomness(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Name: "f", N: 20, M: 40, Classes: 2, FeatureDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDevices(g, 7)
	if len(ds) != 20 {
		t.Fatalf("devices = %d", len(ds))
	}
	// Identities line up with vertices.
	for v, d := range ds {
		if d.ID != v {
			t.Fatalf("device %d built for vertex %d", d.ID, v)
		}
		if d.Party == nil || d.Rng == nil {
			t.Fatal("device missing randomness")
		}
	}
	// Different devices draw different streams.
	a, b := ds[0].Rng.Float64(), ds[1].Rng.Float64()
	if a == b {
		t.Fatal("devices share a random stream")
	}
	// Same seed reproduces the same streams.
	ds2 := NewDevices(g, 7)
	if ds2[0].Rng.Float64() != a {
		t.Fatal("device randomness not reproducible")
	}
}

func TestCostModelEpochTime(t *testing.T) {
	m := CostModel{
		PerLeafPair:    time.Millisecond,
		BaseCompute:    10 * time.Millisecond,
		MsgLatency:     2 * time.Millisecond,
		BytesPerSecond: 1e6,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Straggler dominated: max workload 50 → 50ms compute + 10ms base +
	// 3 rounds × 2ms + 1e6 bytes / 1e6 Bps = 1s transfer.
	got := m.EpochTime([]int{1, 5, 50, 2}, 3, 1_000_000)
	want := 50*time.Millisecond + 10*time.Millisecond + 6*time.Millisecond + time.Second
	if got != want {
		t.Fatalf("epoch time = %v, want %v", got, want)
	}
}

func TestCostModelStragglerDominates(t *testing.T) {
	m := DefaultCostModel()
	balanced := m.EpochTime([]int{10, 10, 10}, 3, 1000)
	skewed := m.EpochTime([]int{1, 1, 100}, 3, 1000)
	if skewed <= balanced {
		t.Fatal("skewed workloads must cost more than balanced ones")
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := (CostModel{BytesPerSecond: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth must error")
	}
	good := DefaultCostModel()
	for _, mutate := range []func(*CostModel){
		func(m *CostModel) { m.PerLeafPair = -time.Microsecond },
		func(m *CostModel) { m.BaseCompute = -time.Millisecond },
		func(m *CostModel) { m.MsgLatency = -time.Millisecond },
		func(m *CostModel) { m.AggBytesPerSecond = -1 },
		func(m *CostModel) { m.DevicePowerWatts = -2 },
		func(m *CostModel) { m.RadioEnergyPerByte = -1e-9 },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("negative cost term validated: %+v", bad)
		}
	}
	// Zero aggregator capacity is valid: it means contention disabled.
	good.AggBytesPerSecond = 0
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelEnergy(t *testing.T) {
	m := CostModel{BytesPerSecond: 1, DevicePowerWatts: 2, RadioEnergyPerByte: 1e-6}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 s of compute at 2 W × 1.5 power multiplier + 1e6 radio bytes at
	// 1 µJ/B = 9 J + 1 J.
	if got := m.Energy(3, 1.5, 1_000_000); got != 10 {
		t.Fatalf("energy = %v J, want 10", got)
	}
	// Energy terms zeroed → free rounds, whatever moved on the wire.
	free := CostModel{BytesPerSecond: 1}
	if got := free.Energy(3, 1.5, 1_000_000); got != 0 {
		t.Fatalf("zeroed energy model charged %v J", got)
	}
}

func TestServerDeterminism(t *testing.T) {
	s1, s2 := NewServer(3), NewServer(3)
	if s1.Rng.Int63() != s2.Rng.Int63() {
		t.Fatal("server randomness not reproducible")
	}
}
