//go:build amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package matrix

import "unsafe"

// On little-endian architectures the in-memory representation of a
// []float64 IS the encoded format, so encode and decode are single bulk
// copies (memmove runs at memory bandwidth; the element loop does not).
// The equivalence with the portable loop is pinned bit-for-bit by
// TestFloatCodecEquivalence, which CI runs under the race detector.

// AppendFloats appends the raw little-endian encoding of fs to buf.
func AppendFloats(buf []byte, fs []float64) []byte {
	if len(fs) == 0 {
		return buf
	}
	src := unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), 8*len(fs))
	return append(buf, src...)
}

// ReadFloats decodes len(dst) doubles from buf into dst; the caller
// has already checked that buf is long enough. buf may be arbitrarily
// aligned — copy tolerates that, only dst must be a real []float64.
func ReadFloats(dst []float64, buf []byte) {
	if len(dst) == 0 {
		return
	}
	dstBytes := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	copy(dstBytes, buf[:8*len(dst)])
}
