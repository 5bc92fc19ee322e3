// Package cpuid reports, once at package init, which x86 vector
// extensions both the CPU and the operating system let this process use.
// The kernels in internal/tsp and internal/sim read it to pick their tier;
// on every GOARCH but amd64 each report is false, so those packages run
// their portable Go code.
package cpuid

var avx, avx512F, avx512DQ bool

// AVX reports whether AVX instructions and the YMM register state are
// usable.
func AVX() bool { return avx }

// AVX512F reports whether AVX-512F instructions and the opmask and ZMM
// register state are usable. It implies AVX.
func AVX512F() bool { return avx512F }

// AVX512DQ reports whether AVX512F holds and the CPU also has AVX-512DQ
// (VPMULLQ on 64-bit lanes, among others).
func AVX512DQ() bool { return avx512DQ }
