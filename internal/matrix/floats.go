package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The float codec shared by the wire protocol and the journal: raw
// little-endian IEEE-754 doubles. Two implementations exist: the
// portable per-element loop below (the format's definition, always
// compiled so the equivalence property test can pin the fast path
// against it), and a bulk reinterpretation for little-endian
// architectures (floats_le.go) that moves whole blocks with one copy —
// the fast path that makes encode/decode bandwidth, not loop overhead,
// the limit. Big-endian builds fall back to the loop
// (floats_generic.go).

// AppendFloatsPortable appends the little-endian encoding of fs to buf,
// one element at a time. This loop is the normative definition of the
// float encoding; AppendFloats must match it bit for bit.
func AppendFloatsPortable(buf []byte, fs []float64) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(fs))...)
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(f))
	}
	return buf
}

// ReadFloatsPortable decodes len(dst) doubles from buf into dst, one
// element at a time; the caller has already checked that buf is long
// enough.
func ReadFloatsPortable(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// Bytes returns the encoded size of every block of m.
func (m *Blocked) Bytes() int { return 8 * m.BR * m.BC * m.Q * m.Q }

// AppendFloats appends every block of m in row-major block order,
// growing buf at most once.
func (m *Blocked) AppendFloats(buf []byte) []byte {
	buf = slices.Grow(buf, m.Bytes())
	for _, b := range m.Blocks {
		buf = AppendFloats(buf, b.Data)
	}
	return buf
}

// ReadFloats decodes m's blocks, in row-major block order, from the head
// of buf straight into m, returning the bytes after them.
func (m *Blocked) ReadFloats(buf []byte) ([]byte, error) {
	need := m.Bytes()
	if len(buf) < need {
		return nil, fmt.Errorf("matrix: short float payload: have %d bytes, want %d", len(buf), need)
	}
	off := 0
	for _, b := range m.Blocks {
		ReadFloats(b.Data, buf[off:])
		off += 8 * len(b.Data)
	}
	return buf[need:], nil
}
