package tsp

import "repro/internal/cpuid"

// useAVX512 and useAVX select the MXM kernel once, from CPUID
// (internal/cpuid): the AVX-512 one in matmul512_amd64.s where the CPU and
// OS support AVX-512F, else the AVX one in matmul_amd64.s where they
// support AVX, else matmulGeneric.
var (
	useAVX512 = cpuid.AVX512F()
	useAVX    = cpuid.AVX()
)

// matmulAVX is matmulGeneric in AVX assembly (matmul_amd64.s), bit for bit
// except NaN payloads.
//
//go:noescape
func matmulAVX(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)

// matmulAVX512 is matmulGeneric in AVX-512F assembly (matmul512_amd64.s),
// bit for bit except NaN payloads.
//
//go:noescape
func matmulAVX512(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)

func matmul(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool) {
	if useAVX512 {
		return matmulAVX512(out, act, w, rows)
	}
	if useAVX {
		return matmulAVX(out, act, w, rows)
	}
	return matmulGeneric(out, act, w, rows)
}
