//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package tsp

import "unsafe"

// On a little-endian host a vector's bytes already are its 80 float32 lanes
// in memory order, so both codecs are one 320-byte copy. Each side is viewed
// as a Vector, whose alignment is 1, so the copy assumes nothing about the
// alignment of the byte side. codec_other.go keeps the per-lane loops for
// big-endian hosts.

// The casts below need the two views to be the same size.
var _ = [1]struct{}{}[unsafe.Sizeof(Lanes{})-unsafe.Sizeof(Vector{})]

// decodeInto decodes the vector's 80 little-endian float32 lanes into out.
func (v *Vector) decodeInto(out *Lanes) { *(*Vector)(unsafe.Pointer(out)) = *v }

// encodeFrom encodes 80 float32 lanes into the vector (the exact inverse
// of decodeInto).
func (v *Vector) encodeFrom(f *Lanes) { *v = *(*Vector)(unsafe.Pointer(f)) }
