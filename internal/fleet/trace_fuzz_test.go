package fleet

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// traceSeeds are inputs both trace fuzz targets start from: rows that once
// loaded non-finite multipliers or out-of-range cycle columns.
var traceSeeds = []string{
	"device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,NaN,1,1,1,0,0,0\n1,1,+Inf,1,1,0,0,0\n",
	"device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,1e300,1,0\n",
	"device,compute,bandwidth,latency,power,period,on_rounds,phase\n0,1,1,1,1,4,1,-1e300\n",
	`{"devices": [{"compute": 1, "bandwidth": 1, "latency": 1, "power": 1, "period": 1e300, "on_rounds": 1}]}`,
}

// fuzzTrace checks a trace fuzz target's invariant: read returns an error,
// or a trace whose every profile validates and which write → read returns
// unchanged.
func fuzzTrace(f *testing.F, read func(io.Reader) (*Trace, error), write func(*Trace, io.Writer) error) {
	tr, err := SampleTrace(12, 5)
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := write(tr, &good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, s := range traceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range tr.Devices {
			if err := p.Validate(); err != nil {
				t.Fatalf("device %d loaded but does not validate: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := write(tr, &buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("trace did not round-trip:\n got %+v\nwant %+v", again, tr)
		}
	})
}

func FuzzReadTraceCSV(f *testing.F) { fuzzTrace(f, ReadTraceCSV, (*Trace).WriteCSV) }

func FuzzReadTraceJSON(f *testing.F) { fuzzTrace(f, ReadTraceJSON, (*Trace).WriteJSON) }
