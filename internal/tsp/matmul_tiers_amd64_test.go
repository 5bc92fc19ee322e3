package tsp

import "testing"

// matmulTiers lists every MXM kernel this host can run, generic first, so
// the kernel tests check the AVX kernel on an AVX-512 host too, not only
// the one matmul picks.
func matmulTiers() []matmulTier {
	tiers := []matmulTier{{"generic", matmulGeneric}}
	if useAVX {
		tiers = append(tiers, matmulTier{"avx", matmulAVX})
	}
	if useAVX512 {
		tiers = append(tiers, matmulTier{"avx512", matmulAVX512})
	}
	return tiers
}

// liveMatMulTier names the kernel matmul runs on this host.
func liveMatMulTier() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX:
		return "avx"
	}
	return "generic"
}

// TestAVX512ImpliesAVX pins the fallback order: a host that passes the
// AVX-512 check can also run the AVX kernel, whose VEX instructions the
// AVX-512 kernel uses as well.
func TestAVX512ImpliesAVX(t *testing.T) {
	if useAVX512 && !useAVX {
		t.Fatal("AVX-512F without AVX")
	}
}
