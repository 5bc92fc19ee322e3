#include "textflag.h"

// The MXM kernel in AVX-512F. It produces the same lanes as matmulGeneric,
// as matmulAVX does: each lane starts at +0 and, for every row r < rows
// whose activation does not compare equal to zero, adds the separately
// rounded product act[r]*w[r][lane] (VMULPS, then VADDPS; no FMA, no
// reassociation). Only NaN payloads may differ, and the caller
// canonicalizes those.
//
// The 80 output lanes fit in five ZMM accumulators, Z0-Z4, so each row
// costs five multiplies, five adds and five weight loads, half of the YMM
// kernel's. Z5 is the broadcast activation, Z6 the product and X7 zero for
// the skip test.
//
// Weight rows are 320 bytes apart (FloatLanes*4); matmul.go asserts that.

// MAC512 adds act*w[off:off+64] into the accumulator acc. EVEX memory
// operands need no alignment, and Go guarantees the rows only 4-byte
// alignment.
#define MAC512(off, acc) VMULPS off(R9), Z5, Z6; VADDPS Z6, acc, acc

// func matmulAVX512(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) (nan bool)
TEXT ·matmulAVX512(SB), NOSPLIT, $0-33
	MOVQ   out+0(FP), DI
	MOVQ   act+8(FP), R8
	MOVQ   w+16(FP), R9
	MOVQ   rows+24(FP), CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z7, Z7, Z7
	TESTQ  CX, CX
	JLE    store

row:
	// Skip a row whose activation == 0, as Go's a == 0 does: -0 compares
	// equal and is skipped; NaN is unordered (PF set) and is not.
	VBROADCASTSS (R8), Z5
	VUCOMISS     X7, X5
	JPS          mac
	JEQ          next

mac:
	MAC512(0, Z0)
	MAC512(64, Z1)
	MAC512(128, Z2)
	MAC512(192, Z3)
	MAC512(256, Z4)

next:
	ADDQ $4, R8
	ADDQ $320, R9
	DECQ CX
	JNZ  row

store:
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)

	// VCMPPS $3 (unordered) sets a mask bit when either operand's lane is
	// NaN. K1 and K2 cover Z0-Z3 pairwise, K3 compares Z4 with itself, and
	// KORTESTW sets ZF only when no bit of K1|K2|K3 is set.
	VCMPPS   $3, Z1, Z0, K1
	VCMPPS   $3, Z3, Z2, K2
	VCMPPS   $3, Z4, Z4, K3
	KORW     K2, K1, K1
	KORTESTW K3, K1
	VZEROUPPER
	SETNE    nan+32(FP)
	RET
