//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package checkpoint

import (
	"unsafe"

	"repro/internal/tsp"
)

// On a little-endian host the weight matrix in memory already is its
// encoding, each float32 as its little-endian IEEE-754 bits in row order,
// so both directions are one copy (the split of tsp's codec_le.go).
// weights_other.go keeps the per-float loops for big-endian hosts.

// The views below need the matrix to be exactly its encoding's size.
var _ = [1]struct{}{}[unsafe.Sizeof(*tsp.ChipState{}.Weights)-weightsLen]

// weightBytes views the matrix as its encoding.
func weightBytes(m *[tsp.WeightRows][tsp.FloatLanes]float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(m)), weightsLen)
}

// putWeights encodes the matrix into b, which holds weightsLen bytes.
func putWeights(b []byte, m *[tsp.WeightRows][tsp.FloatLanes]float32) { copy(b, weightBytes(m)) }

// getWeights decodes b, which holds weightsLen bytes, into the matrix.
func getWeights(m *[tsp.WeightRows][tsp.FloatLanes]float32, b []byte) { copy(weightBytes(m), b) }
