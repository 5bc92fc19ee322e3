//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package checkpoint

import (
	"unsafe"

	"repro/internal/obs"
)

// On a little-endian host a series' samples in memory already are their
// encoding, each sample's cycle then value as little-endian int64s, so
// both directions are one copy, as for weight rows (weights_le.go).
// samples_other.go keeps the per-field loops for big-endian hosts.

// The view below needs a sample to be exactly its encoding, cycle first.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(obs.SamplePoint{})-sampleLen]
	_ = [1]struct{}{}[unsafe.Offsetof(obs.SamplePoint{}.Value)-8]
)

// sampleBytes views samples as their encoding.
func sampleBytes(s []obs.SamplePoint) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*sampleLen)
}

// putSamples encodes s into b, which holds len(s)*sampleLen bytes.
func putSamples(b []byte, s []obs.SamplePoint) { copy(b, sampleBytes(s)) }

// getSamples decodes b, which holds len(s)*sampleLen bytes, into s.
func getSamples(s []obs.SamplePoint, b []byte) { copy(sampleBytes(s), b) }
