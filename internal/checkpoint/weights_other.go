//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package checkpoint

import (
	"encoding/binary"
	"math"

	"repro/internal/tsp"
)

// putWeights encodes the matrix into b, which holds weightsLen bytes:
// each float32 as its little-endian IEEE-754 bits, in row order.
func putWeights(b []byte, m *[tsp.WeightRows][tsp.FloatLanes]float32) {
	for r := range m {
		for _, v := range m[r] {
			binary.LittleEndian.PutUint32(b, math.Float32bits(v))
			b = b[4:]
		}
	}
}

// getWeights decodes b, which holds weightsLen bytes, into the matrix.
func getWeights(m *[tsp.WeightRows][tsp.FloatLanes]float32, b []byte) {
	for r := range m {
		for j := range m[r] {
			m[r][j] = math.Float32frombits(binary.LittleEndian.Uint32(b))
			b = b[4:]
		}
	}
}
