package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lumos/internal/autodiff"
	"lumos/internal/tensor"
)

// paramSet is a minimal Module for codec tests.
type paramSet []*Param

func (ps paramSet) Params() []*Param { return ps }

func newParamSet(rng *rand.Rand, names ...string) paramSet {
	var ps paramSet
	for _, n := range names {
		ps = append(ps, &Param{Name: n, V: autodiff.Var(tensor.Uniform(3, 2, -1, 1, rng))})
	}
	return ps
}

func checkpointOf(t *testing.T, m Module) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadParamsCorruptLengthFields drives every untrusted length field out
// of bounds and expects a loud decode error in place of the historical
// multi-GB up-front allocation.
func TestLoadParamsCorruptLengthFields(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := newParamSet(rng, "a", "b")
	good := checkpointOf(t, m)

	// Offsets into the stream: magic u32, count u32, then per parameter
	// nameLen u32, name, blobLen u32, blob.
	countOff := 4
	nameLenOff := 8
	blobLenOff := 8 + 4 + 1 // nameLen + 1-byte name "a"

	cases := []struct {
		name string
		off  int
		val  uint32
		want string
	}{
		{"huge count", countOff, 1 << 30, "bound is"},
		{"huge name length", nameLenOff, 1 << 30, "name length"},
		{"zero name length", nameLenOff, 0, "name length"},
		{"huge blob length", blobLenOff, 1 << 30, "bound is"},
		{"blob length past EOF", blobLenOff, 1 << 20, "payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupt := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(corrupt[tc.off:], tc.val)
			err := LoadParams(bytes.NewReader(corrupt), newParamSet(rand.New(rand.NewSource(5)), "a", "b"))
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadParamsTruncation cuts the checkpoint at every byte boundary; each
// prefix must fail cleanly (no panic, no silent success).
func TestLoadParamsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := newParamSet(rng, "w", "b")
	good := checkpointOf(t, m)
	for n := 0; n < len(good); n++ {
		if err := LoadParams(bytes.NewReader(good[:n]), newParamSet(rand.New(rand.NewSource(6)), "w", "b")); err == nil {
			t.Fatalf("truncated checkpoint (%d of %d bytes) loaded without error", n, len(good))
		}
	}
	if err := LoadParams(bytes.NewReader(good), newParamSet(rand.New(rand.NewSource(7)), "w", "b")); err != nil {
		t.Fatalf("intact checkpoint failed to load: %v", err)
	}
}

func TestLoadParamsRejectsDuplicateNames(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// SaveParams refuses to write duplicates, so splice a stream by hand:
	// serialize {x} and repeat its parameter record with count patched to 2.
	good := checkpointOf(t, newParamSet(rng, "x"))
	record := good[8:] // past magic + count
	dup := append([]byte(nil), good[:4]...)
	dup = binary.LittleEndian.AppendUint32(dup, 2)
	dup = append(dup, record...)
	dup = append(dup, record...)
	err := LoadParams(bytes.NewReader(dup), newParamSet(rand.New(rand.NewSource(8)), "x", "y"))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

func TestSaveParamsRejectsDuplicateNames(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := newParamSet(rng, "x", "x")
	if err := SaveParams(&bytes.Buffer{}, m); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

// TestLoadParamsSurfacesExtras loads a larger checkpoint into a smaller
// model: the stream parameters the model lacks must be named in the error
// instead of being silently dropped.
func TestLoadParamsSurfacesExtras(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	writer := newParamSet(rng, "shared", "writer.only1", "writer.only2")
	good := checkpointOf(t, writer)
	reader := newParamSet(rand.New(rand.NewSource(9)), "shared")
	err := LoadParams(bytes.NewReader(good), reader)
	if err == nil {
		t.Fatal("extra stream parameters loaded without error")
	}
	for _, name := range []string{"writer.only1", "writer.only2"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name extra parameter %q", err, name)
		}
	}
	if strings.Contains(err.Error(), `"shared"`) {
		t.Fatalf("error %q names a parameter the model does have", err)
	}
}

func TestLoadParamsRejectsTrailingData(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := newParamSet(rng, "p")
	good := checkpointOf(t, m)
	err := LoadParams(bytes.NewReader(append(good, 0xff)), newParamSet(rand.New(rand.NewSource(10)), "p"))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}
}

// TestLoadParamsFailureLeavesModelUntouched: every validation error must
// fire before any parameter is mutated.
func TestLoadParamsFailureLeavesModelUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	writer := newParamSet(rng, "a", "extra")
	good := checkpointOf(t, writer)
	reader := newParamSet(rand.New(rand.NewSource(11)), "a")
	before := reader[0].V.Data.Clone()
	if err := LoadParams(bytes.NewReader(good), reader); err == nil {
		t.Fatal("want error")
	}
	if !tensor.ApproxEqual(reader[0].V.Data, before, 0) {
		t.Fatal("failed load mutated the model")
	}
}

// loadAllocBytes runs LoadParams and returns the bytes it allocated.
func loadAllocBytes(data []byte, m Module) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := LoadParams(bytes.NewReader(data), m)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// loadAllocBound is the most LoadParams may allocate for an n-byte stream:
// its read buffer and bookkeeping, plus a small multiple of the bytes it
// actually read (a payload buffer grows by doubling, then the matrix is
// decoded out of it). Nothing is sized from a length field before the
// bytes it promises have arrived.
func loadAllocBound(n int) uint64 { return 64<<10 + 8*uint64(n) }

// An 8-byte stream claiming the maximum parameter count fails on EOF after
// allocating little more than its read buffer: the containers grow as
// parameters arrive instead of being sized from the untrusted count (they
// once took 4.5 MB here).
func TestLoadParamsHugeCountAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is unreliable under -short (race) runs")
	}
	data := binary.LittleEndian.AppendUint32(nil, checkpointMagic)
	data = binary.LittleEndian.AppendUint32(data, MaxCheckpointParams)
	m := newParamSet(rand.New(rand.NewSource(28)), "a")
	var worst uint64
	for i := 0; i < 5; i++ {
		n, err := loadAllocBytes(data, m)
		if err == nil {
			t.Fatal("8-byte checkpoint loaded without error")
		}
		worst = max(worst, n)
	}
	if worst > 16<<10 {
		t.Fatalf("8-byte checkpoint claiming %d parameters allocated %d B, want ≤ 16 KiB", MaxCheckpointParams, worst)
	}
}

// fuzzModel is the model FuzzLoadParams loads into: two parameters of
// different shapes, small enough that a valid checkpoint is 74 bytes.
func fuzzModel(seed int64) paramSet {
	rng := rand.New(rand.NewSource(seed))
	return paramSet{
		{Name: "w", V: autodiff.Var(tensor.Uniform(1, 2, -1, 1, rng))},
		{Name: "b", V: autodiff.Var(tensor.Uniform(1, 1, -1, 1, rng))},
	}
}

// checkpointRecords splits a checkpoint LoadParams accepted into name →
// payload.
func checkpointRecords(data []byte) map[string][]byte {
	out := make(map[string][]byte)
	count := int(binary.LittleEndian.Uint32(data[4:]))
	p := 8
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(data[p:]))
		name := string(data[p+4 : p+4+n])
		p += 4 + n
		n = int(binary.LittleEndian.Uint32(data[p:]))
		out[name] = data[p+4 : p+4+n]
		p += 4 + n
	}
	return out
}

func marshalParams(t *testing.T, m paramSet) [][]byte {
	out := make([][]byte, len(m))
	for i, p := range m {
		b, err := p.V.Data.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// FuzzLoadParams: the loader returns an error or a fully restored model. It
// never panics, never touches the model when it fails, and never allocates
// more than loadAllocBound of the stream's length. The committed seeds
// (testdata/fuzz/FuzzLoadParams) are a valid checkpoint, huge count, name
// and payload lengths, an 8-byte stream claiming the maximum count, a
// duplicate name, 0×huge and huge×0 matrix headers and trailing bytes;
// every truncation of the valid checkpoint is added here.
func FuzzLoadParams(f *testing.F) {
	var good bytes.Buffer
	if err := SaveParams(&good, fuzzModel(2)); err != nil {
		f.Fatal(err)
	}
	for n := 0; n < good.Len(); n++ {
		f.Add(good.Bytes()[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(1)
		before := marshalParams(t, m)
		n, err := loadAllocBytes(data, m)
		if !testing.Short() && n > loadAllocBound(len(data)) {
			t.Fatalf("%d-byte checkpoint allocated %d B, bound %d (err %v)", len(data), n, loadAllocBound(len(data)), err)
		}
		after := marshalParams(t, m)
		if err != nil {
			for i, p := range m {
				if !bytes.Equal(after[i], before[i]) {
					t.Fatalf("failed load (%v) changed parameter %q", err, p.Name)
				}
			}
			return
		}
		recs := checkpointRecords(data)
		if len(recs) != len(m) {
			t.Fatalf("loaded a checkpoint of %d parameters into a model of %d", len(recs), len(m))
		}
		for i, p := range m {
			if !bytes.Equal(after[i], recs[p.Name]) {
				t.Fatalf("parameter %q is not what the checkpoint holds", p.Name)
			}
		}
	})
}
