//go:build !amd64

package tsp

func vadd(out, a, b *Lanes) (nan bool) { return vaddGeneric(out, a, b) }
