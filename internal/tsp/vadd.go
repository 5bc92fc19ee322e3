package tsp

// vadd_amd64.s hard-codes 80 lanes.
var _ = [1]struct{}{}[FloatLanes-80]

// vaddGeneric is the portable VADD kernel and the oracle the amd64 one is
// fuzzed against: out[i] = a[i] + b[i] for every lane. It reports whether a
// lane is NaN, so the caller scrubs payloads only then. out may alias a or
// b: each lane reads both operands before it stores.
func vaddGeneric(out, a, b *Lanes) (nan bool) {
	for i := range out {
		s := a[i] + b[i]
		if s != s {
			nan = true
		}
		out[i] = s
	}
	return nan
}
