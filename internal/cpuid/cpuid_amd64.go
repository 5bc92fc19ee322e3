package cpuid

// cpuid executes CPUID with the given leaf and subleaf (cpuid_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0 (cpuid_amd64.s). Call it only when
// CPUID reports OSXSAVE.
func xgetbv() uint32

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	// Leaf 1 ECX: AVX (bit 28) and OSXSAVE (bit 27); XCR0: the OS saves
	// the XMM and YMM state (bits 1 and 2).
	const avxOSXSAVE = 1<<28 | 1<<27
	if _, _, ecx, _ := cpuid(1, 0); ecx&avxOSXSAVE != avxOSXSAVE {
		return
	}
	xcr0 := xgetbv()
	avx = xcr0&0x6 == 0x6
	if !avx || maxLeaf < 7 {
		return
	}
	// Leaf 7.0 EBX: AVX512F (bit 16) and AVX512DQ (bit 17); XCR0: the OS
	// also saves the opmask and both ZMM states (bits 5, 6 and 7).
	_, ebx, _, _ := cpuid(7, 0)
	avx512F = ebx&(1<<16) != 0 && xcr0&0xE6 == 0xE6
	avx512DQ = avx512F && ebx&(1<<17) != 0
}
