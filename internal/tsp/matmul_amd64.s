#include "textflag.h"

// The MXM kernel in SSE2, the amd64 baseline. It produces the same lanes as
// matmulGeneric: each lane starts at +0 and, for every row r < rows whose
// activation does not compare equal to zero, adds the separately rounded
// product act[r]*w[r][lane] (MULPS, then ADDPS; no FMA, no reassociation).
// Only NaN payloads may differ, and the caller canonicalizes those.
//
// The 80 output lanes are too many for 16 XMM registers, so the kernel
// makes two passes over the rows, 40 lanes each, holding the half's sums in
// X0-X9. X10 is the broadcast activation, X11 the product, X12 zero for the
// skip test, and X13 the running NaN mask.
//
// Weight rows are 320 bytes apart (FloatLanes*4); matmul.go asserts that.

// MAC adds act*w[off:off+16] into the accumulator acc. The weight load is
// MOVUPS because Go guarantees the rows only 4-byte alignment.
#define MAC(off, acc) MOVUPS off(R9), X11; MULPS X10, X11; ADDPS X11, acc

// func matmul(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)
TEXT ·matmul(SB), NOSPLIT, $0-33
	MOVQ  out+0(FP), DI
	MOVQ  act+8(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  rows+24(FP), CX
	XORPS X12, X12
	XORPS X13, X13
	MOVQ  $2, BX

half:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORPS X8, X8
	XORPS X9, X9
	MOVQ  SI, R8
	MOVQ  DX, R9
	MOVQ  CX, R10
	TESTQ R10, R10
	JLE   store

row:
	// Skip a row whose activation == 0, as Go's a == 0 does: -0 compares
	// equal and is skipped; NaN is unordered (PF set) and is not.
	MOVSS   (R8), X10
	UCOMISS X12, X10
	JPS     mac
	JEQ     next

mac:
	SHUFPS $0, X10, X10
	MAC(0, X0)
	MAC(16, X1)
	MAC(32, X2)
	MAC(48, X3)
	MAC(64, X4)
	MAC(80, X5)
	MAC(96, X6)
	MAC(112, X7)
	MAC(128, X8)
	MAC(144, X9)

next:
	ADDQ $4, R8
	ADDQ $320, R9
	DECQ R10
	JNZ  row

store:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	MOVUPS X8, 128(DI)
	MOVUPS X9, 144(DI)

	// CMPPS $3 (unordered) sets a lane to all ones when either operand's
	// lane is NaN; fold the five pairwise results into the mask.
	CMPPS X1, X0, $3
	CMPPS X3, X2, $3
	CMPPS X5, X4, $3
	CMPPS X7, X6, $3
	CMPPS X9, X8, $3
	ORPS  X0, X13
	ORPS  X2, X13
	ORPS  X4, X13
	ORPS  X6, X13
	ORPS  X8, X13

	ADDQ $160, DI
	ADDQ $160, DX
	DECQ BX
	JNZ  half

	MOVMSKPS X13, AX
	TESTL    AX, AX
	SETNE    nan+32(FP)
	RET
