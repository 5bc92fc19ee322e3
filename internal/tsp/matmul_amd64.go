package tsp

// matmul is matmulGeneric in SSE2 assembly (matmul_amd64.s), bit for bit.
//
//go:noescape
func matmul(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)
