package sim

import "repro/internal/cpuid"

// useAVX512 selects FirstBernoulli's scan once, from CPUID
// (internal/cpuid): the vector one in bernoulli_amd64.s where the CPU and
// OS support AVX-512F and AVX-512DQ (for VPMULLQ), else the scalar loop.
var useAVX512 = cpuid.AVX512DQ()

func scanBernoulli(s uint64, n int, below uint64) (int, uint64) {
	if useAVX512 {
		return scanBernoulliAVX512(s, n, below)
	}
	return scanBernoulliGeneric(s, n, below)
}

// scanBernoulliAVX512 is scanBernoulliGeneric with the draws up to the
// last multiple of 16 tested 16 at a time (bernoulli_amd64.s), and the
// rest by the scalar loop.
func scanBernoulliAVX512(s uint64, n int, below uint64) (int, uint64) {
	done := n &^ 15
	// mix64(x)>>11 < below holds exactly when mix64(x) <= below<<11 - 1,
	// which is also right for below = 2^53, where below<<11 wraps to 0.
	if i := firstBelow16(s, done/16, below<<11-1); i < done {
		return i, s + uint64(i+1)*gamma
	}
	i, s := scanBernoulliGeneric(s+uint64(done)*gamma, n-done, below)
	return done + i, s
}

// firstBelow16 returns the index of the first of the blocks*16 draws
// mix64(s + (i+1)·gamma) at or under max, or blocks*16 when none is.
func firstBelow16(s uint64, blocks int, max uint64) int
