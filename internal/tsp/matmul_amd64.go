package tsp

// useAVX selects the MXM kernel once, from CPUID (cpuid_amd64.s): the AVX
// one in matmul_amd64.s where the CPU and OS support it, matmulGeneric
// otherwise.
var useAVX = hasAVX()

func hasAVX() bool

// matmulAVX is matmulGeneric in AVX assembly (matmul_amd64.s), bit for bit
// except NaN payloads.
//
//go:noescape
func matmulAVX(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)

func matmul(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool) {
	if useAVX {
		return matmulAVX(out, act, w, rows)
	}
	return matmulGeneric(out, act, w, rows)
}
