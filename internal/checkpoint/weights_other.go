//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package checkpoint

import (
	"encoding/binary"
	"math"

	"repro/internal/tsp"
)

// putRow encodes a weight row into b, which holds rowLen bytes: each
// float32 as its little-endian IEEE-754 bits, in lane order.
func putRow(b []byte, r *[tsp.FloatLanes]float32) {
	for _, v := range r {
		binary.LittleEndian.PutUint32(b, math.Float32bits(v))
		b = b[4:]
	}
}

// getRow decodes b, which holds rowLen bytes, into a weight row.
func getRow(r *[tsp.FloatLanes]float32, b []byte) {
	for j := range r {
		r[j] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}
