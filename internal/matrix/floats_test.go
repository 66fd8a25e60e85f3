package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestFloatCodecEquivalence pins the bulk little-endian float path
// bit-identical to the portable per-element loop — the loop is the
// encoding's definition, the bulk path is an optimization and may never
// diverge from it. The property runs across sizes (empty through
// several blocks), byte offsets (the decode source is arbitrarily
// aligned inside a frame) and hostile bit patterns (NaN payloads,
// signed zeros, infinities, subnormals). CI runs it under the race
// detector alongside the engine conformance suite.
func TestFloatCodecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []uint64{
		0, 1, math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), 0x7FF0000000000001, // signaling-style NaN payload
		0xFFFFFFFFFFFFFFFF, 0x0000000000000001, // quiet-NaN-with-payload, subnormal
	}
	sizes := []int{0, 1, 2, 3, 7, 8, 63, 64, 100, 576, 577, 1024}
	for _, n := range sizes {
		fs := make([]float64, n)
		for i := range fs {
			if i < len(special) {
				fs[i] = math.Float64frombits(special[i])
			} else {
				fs[i] = math.Float64frombits(rng.Uint64())
			}
		}

		// Encode equivalence, including appending after an arbitrary
		// non-8-aligned prefix.
		for _, prefix := range []int{0, 1, 5, 13} {
			pre := make([]byte, prefix)
			rng.Read(pre)
			fast := AppendFloats(append([]byte(nil), pre...), fs)
			slow := AppendFloatsPortable(append([]byte(nil), pre...), fs)
			if len(fast) != len(slow) {
				t.Fatalf("n=%d prefix=%d: fast encodes %d bytes, portable %d", n, prefix, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("n=%d prefix=%d: encoded byte %d differs: %#x != %#x", n, prefix, i, fast[i], slow[i])
				}
			}

			// Decode equivalence from the (offset, hence arbitrarily
			// aligned) encoded bytes.
			dFast := make([]float64, n)
			dSlow := make([]float64, n)
			ReadFloats(dFast, fast[prefix:])
			ReadFloatsPortable(dSlow, slow[prefix:])
			for i := range dFast {
				if math.Float64bits(dFast[i]) != math.Float64bits(dSlow[i]) {
					t.Fatalf("n=%d prefix=%d: decoded element %d differs: %#x != %#x",
						n, prefix, i, math.Float64bits(dFast[i]), math.Float64bits(dSlow[i]))
				}
				if math.Float64bits(dFast[i]) != math.Float64bits(fs[i]) {
					t.Fatalf("n=%d prefix=%d: element %d did not round-trip: %#x != %#x",
						n, prefix, i, math.Float64bits(dFast[i]), math.Float64bits(fs[i]))
				}
			}
		}
	}
}

// TestReadFloatsShort pins the bounds check of Blocked.ReadFloats: a
// payload one element short is refused, an exact one decodes in place
// and leaves the trailing bytes.
func TestReadFloatsShort(t *testing.T) {
	src := NewBlocked(1, 2, 2)
	for i, b := range src.Blocks {
		for k := range b.Data {
			b.Data[k] = float64(10*i + k)
		}
	}
	buf := src.AppendFloats(nil)
	if _, err := NewBlocked(1, 2, 2).ReadFloats(buf[:len(buf)-8]); err == nil {
		t.Fatal("short float payload accepted")
	}
	dst := NewBlocked(1, 2, 2)
	rest, err := dst.ReadFloats(append(buf, 1, 2, 3))
	if err != nil || len(rest) != 3 || !dst.Equal(src, 0) {
		t.Fatalf("ReadFloats: rest=%d err=%v dst=%v", len(rest), err, dst.Blocks[1].Data)
	}
	if got := len(buf); got != src.Bytes() {
		t.Fatalf("AppendFloats wrote %d bytes, Bytes() = %d", got, src.Bytes())
	}
}
