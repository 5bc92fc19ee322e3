//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package checkpoint

import (
	"unsafe"

	"repro/internal/tsp"
)

// On a little-endian host a weight row in memory already is its encoding,
// each float32 as its little-endian IEEE-754 bits in lane order, so both
// directions are one copy (the split of tsp's codec_le.go).
// weights_other.go keeps the per-float loops for big-endian hosts.

// The views below need a row to be exactly its encoding's size.
var _ = [1]struct{}{}[unsafe.Sizeof([tsp.FloatLanes]float32{})-rowLen]

// rowBytes views a weight row as its encoding.
func rowBytes(r *[tsp.FloatLanes]float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(r)), rowLen)
}

// putRow encodes a weight row into b, which holds rowLen bytes.
func putRow(b []byte, r *[tsp.FloatLanes]float32) { copy(b, rowBytes(r)) }

// getRow decodes b, which holds rowLen bytes, into a weight row.
func getRow(r *[tsp.FloatLanes]float32, b []byte) { copy(rowBytes(r), b) }
