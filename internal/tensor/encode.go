package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of matrices: a fixed little-endian header (magic, rows,
// cols) followed by the row-major float64 payload. Used for model
// checkpointing and dataset serialization.

const matrixMagic = uint32(0x4c4d5458) // "LMTX"

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Matrix) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 12+8*len(m.data))
	binary.LittleEndian.PutUint32(buf[0:4], matrixMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(m.rows))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(m.cols))
	for i, v := range m.data {
		binary.LittleEndian.PutUint64(buf[12+8*i:], math.Float64bits(v))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Matrix) UnmarshalBinary(buf []byte) error {
	if len(buf) < 12 {
		return fmt.Errorf("tensor: truncated matrix header (%d bytes)", len(buf))
	}
	if magic := binary.LittleEndian.Uint32(buf[0:4]); magic != matrixMagic {
		return fmt.Errorf("tensor: bad matrix magic %#x", magic)
	}
	rows := binary.LittleEndian.Uint32(buf[4:8])
	cols := binary.LittleEndian.Uint32(buf[8:12])
	// The product of two u32s fits a u64; 8·rows·cols may not, so compare
	// element counts, never byte counts, against the payload.
	payload := uint64(len(buf) - 12)
	if n := uint64(rows) * uint64(cols); payload%8 != 0 || payload/8 != n {
		return fmt.Errorf("tensor: matrix payload %d bytes does not hold %dx%d float64s", payload, rows, cols)
	}
	m.rows, m.cols = int(rows), int(cols)
	m.data = make([]float64, m.rows*m.cols)
	for i := range m.data {
		m.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[12+8*i:]))
	}
	return nil
}
