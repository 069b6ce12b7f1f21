package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := Uniform(7, 5, -100, 100, rng)
	m.Set(0, 0, math.Inf(1))
	m.Set(1, 1, -0.0)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 7 || back.Cols() != 5 {
		t.Fatalf("round-trip dims %dx%d", back.Rows(), back.Cols())
	}
	for i := range m.Data() {
		if math.Float64bits(m.Data()[i]) != math.Float64bits(back.Data()[i]) {
			t.Fatalf("bit mismatch at %d", i)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	var m Matrix
	if err := m.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
}

func TestUnmarshalBadMagic(t *testing.T) {
	m := New(1, 1)
	blob, _ := m.MarshalBinary()
	blob[0] ^= 0xff
	var back Matrix
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestUnmarshalWrongPayload(t *testing.T) {
	m := New(2, 2)
	blob, _ := m.MarshalBinary()
	var back Matrix
	if err := back.UnmarshalBinary(blob[:len(blob)-8]); err == nil {
		t.Fatal("expected error on short payload")
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows%6)+1, int(cols%6)+1
		m := Uniform(r, c, -1e6, 1e6, rand.New(rand.NewSource(seed)))
		blob, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var back Matrix
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		return ApproxEqual(m, &back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalOverflowingHeader: 8·rows·cols wraps to 0 for 2³¹×2³⁰ (and
// to small values for other u32 pairs), so a 12-byte buffer must still be
// refused before anything is allocated.
func TestUnmarshalOverflowingHeader(t *testing.T) {
	for _, dims := range [][2]uint32{
		{1 << 31, 1 << 30},
		{1 << 30, 1 << 31},
		{1 << 29, 1<<32 - 1},
		{math.MaxUint32, math.MaxUint32},
	} {
		buf := make([]byte, 12)
		binary.LittleEndian.PutUint32(buf[0:], matrixMagic)
		binary.LittleEndian.PutUint32(buf[4:], dims[0])
		binary.LittleEndian.PutUint32(buf[8:], dims[1])
		var m Matrix
		if err := m.UnmarshalBinary(buf); err == nil {
			t.Fatalf("%dx%d header with no payload decoded", dims[0], dims[1])
		}
	}
}
