//go:build !amd64

package tsp

func matmul(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool) {
	return matmulGeneric(out, act, w, rows)
}
