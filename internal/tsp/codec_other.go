//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package tsp

import (
	"encoding/binary"
	"math"
)

// decodeInto decodes the vector's 80 little-endian float32 lanes into out.
// Four lanes per step: each lane is an independent exact bit cast, so the
// unroll only trims loop overhead.
func (v *Vector) decodeInto(out *Lanes) {
	for i := 0; i+4 <= FloatLanes; i += 4 {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4:]))
		out[i+1] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+4:]))
		out[i+2] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+8:]))
		out[i+3] = math.Float32frombits(binary.LittleEndian.Uint32(v[i*4+12:]))
	}
}

// encodeFrom encodes 80 float32 lanes into the vector (the exact inverse
// bit cast of decodeInto, unrolled the same way).
func (v *Vector) encodeFrom(f *Lanes) {
	for i := 0; i+4 <= FloatLanes; i += 4 {
		binary.LittleEndian.PutUint32(v[i*4:], math.Float32bits(f[i]))
		binary.LittleEndian.PutUint32(v[i*4+4:], math.Float32bits(f[i+1]))
		binary.LittleEndian.PutUint32(v[i*4+8:], math.Float32bits(f[i+2]))
		binary.LittleEndian.PutUint32(v[i*4+12:], math.Float32bits(f[i+3]))
	}
}
