//go:build !(amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package matrix

// Big-endian (or unknown) architectures use the portable per-element
// loop: the encoding stays little-endian everywhere.

// AppendFloats appends the little-endian encoding of fs to buf.
func AppendFloats(buf []byte, fs []float64) []byte { return AppendFloatsPortable(buf, fs) }

// ReadFloats decodes len(dst) doubles from buf into dst.
func ReadFloats(dst []float64, buf []byte) { ReadFloatsPortable(dst, buf) }
