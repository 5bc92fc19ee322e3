//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package checkpoint

import (
	"encoding/binary"

	"repro/internal/obs"
)

// putSamples encodes s into b, which holds len(s)*sampleLen bytes: each
// sample's cycle then value as little-endian int64s.
func putSamples(b []byte, s []obs.SamplePoint) {
	for _, p := range s {
		binary.LittleEndian.PutUint64(b, uint64(p.Cycle))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.Value))
		b = b[sampleLen:]
	}
}

// getSamples decodes b, which holds len(s)*sampleLen bytes, into s.
func getSamples(s []obs.SamplePoint, b []byte) {
	for i := range s {
		s[i] = obs.SamplePoint{
			Cycle: int64(binary.LittleEndian.Uint64(b)),
			Value: int64(binary.LittleEndian.Uint64(b[8:])),
		}
		b = b[sampleLen:]
	}
}
