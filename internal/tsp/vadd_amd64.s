#include "textflag.h"

// The VADD kernel in SSE2, the amd64 baseline. Every lane is the IEEE
// single-precision sum a[i]+b[i] (ADDPS), as vaddGeneric computes it; only
// NaN payloads may differ, and the caller canonicalizes those. Each step
// loads eight lanes of both operands before it stores them, so out may
// alias a or b.

// ADD8 adds lanes off/4 .. off/4+7. The loads are MOVUPS because Go
// guarantees Lanes only 4-byte alignment. CMPPS $3 (unordered) sets a lane
// of X0 to all ones when either sum's lane is NaN; X8 collects the mask.
#define ADD8(off) \
	MOVUPS off(SI), X0; MOVUPS off+16(SI), X1; \
	MOVUPS off(DX), X2; MOVUPS off+16(DX), X3; \
	ADDPS X2, X0; ADDPS X3, X1; \
	MOVUPS X0, off(DI); MOVUPS X1, off+16(DI); \
	CMPPS X1, X0, $3; ORPS X0, X8

// func vadd(out, a, b *Lanes) (nan bool)
TEXT ·vadd(SB), NOSPLIT, $0-25
	MOVQ  out+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	XORPS X8, X8
	ADD8(0)
	ADD8(32)
	ADD8(64)
	ADD8(96)
	ADD8(128)
	ADD8(160)
	ADD8(192)
	ADD8(224)
	ADD8(256)
	ADD8(288)
	MOVMSKPS X8, AX
	TESTL    AX, AX
	SETNE    nan+24(FP)
	RET
