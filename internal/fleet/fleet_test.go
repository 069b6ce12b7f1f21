package fleet

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func TestProfileValidate(t *testing.T) {
	if err := Nominal().Validate(); err != nil {
		t.Fatal(err)
	}
	good := Profile{Compute: 2, Bandwidth: 0.5, Latency: 1.5, Power: 1.2, Period: 8, OnRounds: 6, Phase: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Profile{
		{Compute: 0, Bandwidth: 1, Latency: 1, Power: 1},
		{Compute: 1, Bandwidth: -1, Latency: 1, Power: 1},
		{Compute: 1, Bandwidth: 1, Latency: 0, Power: 1},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: -0.1},
		{Compute: 1, Bandwidth: 1, Latency: 1}, // omitted power column loads as 0
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, Period: -1},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, Period: 4, OnRounds: 0},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, Period: 4, OnRounds: 5},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, Period: 4, OnRounds: 2, Phase: 4},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, OnRounds: 2},
		{Compute: math.NaN(), Bandwidth: 1, Latency: 1, Power: 1},
		{Compute: 1, Bandwidth: math.Inf(1), Latency: 1, Power: 1},
		{Compute: 1, Bandwidth: 1, Latency: math.Inf(-1), Power: 1},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: math.NaN()},
		{Compute: 1, Bandwidth: 1, Latency: 1, Power: 1, Period: MaxPeriod + 1, OnRounds: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("profile %+v validated", bad)
		}
	}
}

func TestSyntheticFleetsDeterministic(t *testing.T) {
	for _, f := range []Fleet{Uniform(), Zipf(1.2), Periodic(8, 0.75)} {
		a, err := f.Profiles(40, 9)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		b, err := f.Profiles(40, 9)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different fleets", f)
		}
		for d, p := range a {
			if err := p.Validate(); err != nil {
				t.Errorf("%s device %d: %v", f, d, err)
			}
			if p.Power != 1 {
				t.Errorf("%s device %d: synthetic fleet power %v, want nominal", f, d, p.Power)
			}
		}
	}
	if _, err := Zipf(-1).Profiles(10, 1); err == nil {
		t.Error("negative zipf skew accepted")
	}
	if _, err := Periodic(0, 0.5).Profiles(10, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := Periodic(8, 1.5).Profiles(10, 1); err == nil {
		t.Error("duty above 1 accepted")
	}
	if _, err := Uniform().Profiles(0, 1); err == nil {
		t.Error("empty fleet accepted")
	}
}

// TestServerMG1Sanity is the queueing-theory smoke check: n simultaneous
// jobs of equal size through the FIFO server depart at exactly k·service —
// the commit time of a contended fleet grows linearly in the fleet size at
// fixed per-device cost.
func TestServerMG1Sanity(t *testing.T) {
	const svcBytes, rate = 1000, 500.0 // 2s service each
	var last float64
	srv := &Server{BytesPerSecond: rate}
	for k := 1; k <= 8; k++ {
		got := srv.Serve(0, svcBytes)
		want := float64(k) * (svcBytes / rate)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("job %d departed at %v, want %v", k, got, want)
		}
		if got <= last {
			t.Fatalf("departures not strictly increasing: %v after %v", got, last)
		}
		last = got
	}
	// A job arriving after the backlog drains is served immediately.
	if got := srv.Serve(100, svcBytes); got != 102 {
		t.Fatalf("idle-server job departed at %v, want 102", got)
	}
}

func TestServerDisabledIsIndependentLinks(t *testing.T) {
	srv := &Server{}
	for _, at := range []float64{5, 1, 3} { // even out-of-order arrivals pass through
		if got := srv.Serve(at, 1e9); got != at {
			t.Fatalf("disabled server delayed a job: %v -> %v", at, got)
		}
	}
	if srv.Enabled() || srv.freeAt != 0 {
		t.Fatal("disabled server claims to be busy")
	}
	var nilSrv *Server
	if nilSrv.Enabled() {
		t.Fatal("nil server enabled")
	}
}

// TestTraceRoundTrip saves a sampled trace and reloads it: the profiles must
// survive DeepEqual — the contract `lumos-datagen -traces` output relies on.
// A .json path holds the same CSV schema; there is one trace format.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := SampleTrace(23, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"fleet.csv", "fleet.json"} {
		path := filepath.Join(dir, name)
		if err := tr.Save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Devices, tr.Devices) {
			t.Errorf("%s: profiles did not round-trip:\n got %+v\nwant %+v", name, got.Devices, tr.Devices)
		}
	}
}

func TestTraceProfilesSampling(t *testing.T) {
	tr, err := SampleTrace(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// n == len: verbatim, in file order.
	exact, err := tr.Profiles(16, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, tr.Devices) {
		t.Fatal("n == len(trace) did not reproduce the trace verbatim")
	}
	// n < len: a deterministic subset that preserves file order.
	sub, err := tr.Profiles(6, 99)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := tr.Profiles(6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub, sub2) {
		t.Fatal("subset sampling not deterministic")
	}
	// n > len: every record appears, roughly evenly.
	big, err := tr.Profiles(160, 99)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, p := range big {
		for i, d := range tr.Devices {
			if reflect.DeepEqual(p, d) {
				counts[i]++
				break
			}
		}
	}
	if len(counts) != 16 {
		t.Fatalf("oversampled fleet used %d of 16 trace records", len(counts))
	}
	for i, c := range counts {
		if c < 160/16 {
			t.Fatalf("record %d used %d times, want >= %d", i, c, 160/16)
		}
	}
	if _, err := (&Trace{Name: "empty"}).Profiles(4, 1); err == nil {
		t.Fatal("empty trace sampled")
	}
}

func TestReadTraceCSVRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"empty":         "",
		"bad header":    "a,b\n",
		"bad value":     "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,x,1,1,1,0,0,0\n",
		"zero compute":  "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,0,1,1,1,0,0,0\n",
		"float period":  "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,2.5,1,0\n",
		"phase too big": "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,4,2,9\n",
		"no devices":    "device,compute,bandwidth,latency,power,period,on_rounds,phase\n",
		// Non-finite multipliers once loaded and priced every round's
		// energy as NaN.
		"NaN compute":   "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,NaN,1,1,1,0,0,0\n",
		"Inf bandwidth": "device,compute,bandwidth,latency,power,period,on_rounds,phase\n1,1,+Inf,1,1,0,0,0\n",
		// Integral columns past int's range once converted to whatever
		// the platform's float-to-int conversion produced.
		"huge period":    "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,1e300,1,0\n",
		"huge -phase":    "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,4,1,-1e300\n",
		"Inf on_rounds":  "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,4,+Inf,0\n",
		"period too big": "device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,2147483648,1,0\n",
		// A JSON body is not a trace: traces are CSV only.
		"JSON trace": `{"devices": [{"compute": 1, "bandwidth": 1, "latency": 1, "power": 1}]}`,
	} {
		if _, err := ReadTraceCSV(bytes.NewReader([]byte(body))); err == nil {
			t.Errorf("%s: malformed CSV trace accepted", name)
		}
	}
}

func TestSampleTraceShape(t *testing.T) {
	tr, err := SampleTrace(64, 11)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SampleTrace(64, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Fatal("SampleTrace not deterministic")
	}
	cycled, fast, slow := 0, 0, 0
	for _, p := range tr.Devices {
		if p.Period > 0 {
			cycled++
		}
		if p.Compute < 1 {
			fast++
		}
		if p.Compute > 1.5 {
			slow++
		}
	}
	if cycled == 0 || fast == 0 || slow == 0 {
		t.Fatalf("sample trace lacks its regimes: %d cycled, %d fast, %d slow of %d", cycled, fast, slow, len(tr.Devices))
	}
	if _, err := SampleTrace(0, 1); err == nil {
		t.Fatal("empty sample trace accepted")
	}
}
