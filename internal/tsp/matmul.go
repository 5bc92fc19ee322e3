package tsp

// matmul_amd64.s and matmul512_amd64.s hard-code 80 lanes, so 320-byte
// weight rows.
var _ = [1]struct{}{}[FloatLanes-80]

// matmulGeneric is the portable MXM kernel and the oracle the amd64 ones
// are fuzzed against: out = Σ act[r]·w[r] over rows r < rows with a nonzero
// activation, each lane summed from +0 in row order. It writes every lane
// of out, which must not alias act. It reports whether a lane is NaN, so
// the caller scrubs payloads only then. The float32 conversion rounds each
// product before the add; without it arm64, ppc64le, s390x and riscv64
// fuse the two into an FMA and MatMul bytes would depend on GOARCH.
func matmulGeneric(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool) {
	*out = Lanes{}
	for r := 0; r < rows; r++ {
		a := act[r]
		if a == 0 {
			continue
		}
		wr := &w[r]
		// Unrolled 4-wide over the output lanes. Lanes accumulate
		// independently (out[j] only ever combines with wr[j]), so this
		// reorders nothing within any lane's sum.
		for j := 0; j+4 <= FloatLanes; j += 4 {
			out[j] += float32(a * wr[j])
			out[j+1] += float32(a * wr[j+1])
			out[j+2] += float32(a * wr[j+2])
			out[j+3] += float32(a * wr[j+3])
		}
	}
	for _, x := range out {
		if x != x {
			return true
		}
	}
	return false
}
