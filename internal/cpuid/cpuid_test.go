package cpuid

import "testing"

// Each report implies the one before it: the kernels fall back in that
// order, and an AVX-512 kernel also runs VEX instructions.
func TestFeatureOrder(t *testing.T) {
	t.Logf("AVX %v, AVX-512F %v, AVX-512DQ %v", AVX(), AVX512F(), AVX512DQ())
	if AVX512DQ() && !AVX512F() {
		t.Error("AVX-512DQ without AVX-512F")
	}
	if AVX512F() && !AVX() {
		t.Error("AVX-512F without AVX")
	}
}
