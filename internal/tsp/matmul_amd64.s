#include "textflag.h"

// The MXM kernel in AVX. It produces the same lanes as matmulGeneric: each
// lane starts at +0 and, for every row r < rows whose activation does not
// compare equal to zero, adds the separately rounded product
// act[r]*w[r][lane] (VMULPS, then VADDPS; no FMA, no reassociation). Only
// NaN payloads may differ, and the caller canonicalizes those.
//
// The 80 output lanes fit in ten YMM accumulators, Y0-Y9, so the kernel
// makes one pass over the rows. Y10 is the broadcast activation, Y11 the
// product, X12 zero for the skip test, and Y13 the NaN mask.
//
// Weight rows are 320 bytes apart (FloatLanes*4); matmul.go asserts that.

// MAC adds act*w[off:off+32] into the accumulator acc. VMULPS takes the
// weights straight from memory: VEX memory operands need no alignment, and
// Go guarantees the rows only 4-byte alignment.
#define MAC(off, acc) VMULPS off(R9), Y10, Y11; VADDPS Y11, acc, acc

// func matmulAVX(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)
TEXT ·matmulAVX(SB), NOSPLIT, $0-33
	MOVQ   out+0(FP), DI
	MOVQ   act+8(FP), R8
	MOVQ   w+16(FP), R9
	MOVQ   rows+24(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y12, Y12, Y12
	TESTQ  CX, CX
	JLE    store

row:
	// Skip a row whose activation == 0, as Go's a == 0 does: -0 compares
	// equal and is skipped; NaN is unordered (PF set) and is not.
	VBROADCASTSS (R8), Y10
	VUCOMISS     X12, X10
	JPS          mac
	JEQ          next

mac:
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)
	MAC(256, Y8)
	MAC(288, Y9)

next:
	ADDQ $4, R8
	ADDQ $320, R9
	DECQ CX
	JNZ  row

store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)

	// VCMPPS $3 (unordered) sets a lane to all ones when either operand's
	// lane is NaN; fold the five pairwise results into the mask.
	VCMPPS $3, Y1, Y0, Y13
	VCMPPS $3, Y3, Y2, Y2
	VCMPPS $3, Y5, Y4, Y4
	VCMPPS $3, Y7, Y6, Y6
	VCMPPS $3, Y9, Y8, Y8
	VORPS  Y2, Y13, Y13
	VORPS  Y4, Y13, Y13
	VORPS  Y6, Y13, Y13
	VORPS  Y8, Y13, Y13

	VMOVMSKPS Y13, AX
	VZEROUPPER
	TESTL     AX, AX
	SETNE     nan+32(FP)
	RET
