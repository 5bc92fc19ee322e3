#include "textflag.h"

// func hasAVX() bool
//
// AVX is usable when CPUID leaf 1 reports both the AVX instructions
// (ECX bit 28) and OS support for XSAVE (OSXSAVE, ECX bit 27), and XCR0
// shows the OS saves the XMM and YMM register state (bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX512() bool
//
// AVX-512F is usable when the maximum basic CPUID leaf is at least 7,
// leaf 1 reports AVX and OSXSAVE as hasAVX requires (the kernel also runs
// VEX instructions, so AVX-512 implies AVX), leaf 7 subleaf 0 reports
// AVX512F (EBX bit 16), and XCR0 shows the OS saves the XMM, YMM, opmask
// and both ZMM register states (bits 1, 2, 5, 6 and 7).
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10000, BX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
