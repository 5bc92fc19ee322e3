package tsp

// vadd is vaddGeneric in SSE2 assembly (vadd_amd64.s), bit for bit except
// NaN payloads.
//
//go:noescape
func vadd(out, a, b *Lanes) (nan bool)
