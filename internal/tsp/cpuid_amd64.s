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
