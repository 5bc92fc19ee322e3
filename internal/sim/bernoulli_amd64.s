#include "textflag.h"

// FirstBernoulli's scan in AVX-512F and AVX-512DQ. SplitMix64 draw i of a
// stream at state s is mix64(s + (i+1)·gamma), so each iteration computes
// 16 draws at once, lanes 0-7 in Z0 and lanes 8-15 in Z1, and tests them
// all against the threshold with one unsigned compare per vector. mix64
// needs 64-bit lane multiplies, VPMULLQ, which is AVX-512DQ.
//
// Z0, Z1 hold the 16 stream states, Z28 the step 16·gamma, Z29 the
// threshold, Z30 and Z31 mix64's two multipliers; Z2-Z5 are scratch.

// lanes holds 1..16, the draw offsets of one block.
DATA lanes<>+0x00(SB)/8, $1
DATA lanes<>+0x08(SB)/8, $2
DATA lanes<>+0x10(SB)/8, $3
DATA lanes<>+0x18(SB)/8, $4
DATA lanes<>+0x20(SB)/8, $5
DATA lanes<>+0x28(SB)/8, $6
DATA lanes<>+0x30(SB)/8, $7
DATA lanes<>+0x38(SB)/8, $8
DATA lanes<>+0x40(SB)/8, $9
DATA lanes<>+0x48(SB)/8, $10
DATA lanes<>+0x50(SB)/8, $11
DATA lanes<>+0x58(SB)/8, $12
DATA lanes<>+0x60(SB)/8, $13
DATA lanes<>+0x68(SB)/8, $14
DATA lanes<>+0x70(SB)/8, $15
DATA lanes<>+0x78(SB)/8, $16
GLOBL lanes<>(SB), RODATA|NOPTR, $128

// MIX64 computes mix64(z) into out, with tmp as scratch:
// z ^= z>>30; z *= 0xbf58476d1ce4e5b9; z ^= z>>27; z *= 0x94d049bb133111eb;
// z ^= z>>31.
#define MIX64(z, out, tmp) \
	VPSRLQ  $30, z, out;   \
	VPXORQ  z, out, out;   \
	VPMULLQ Z30, out, out; \
	VPSRLQ  $27, out, tmp; \
	VPXORQ  tmp, out, out; \
	VPMULLQ Z31, out, out; \
	VPSRLQ  $31, out, tmp; \
	VPXORQ  tmp, out, out

// func firstBelow16(s uint64, blocks int, max uint64) int
TEXT ·firstBelow16(SB), NOSPLIT, $0-32
	MOVQ blocks+8(FP), CX
	XORQ DX, DX
	TESTQ CX, CX
	JLE  none

	MOVQ $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z28
	VPBROADCASTQ s+0(FP), Z2
	VPMULLQ lanes<>+0x00(SB), Z28, Z0
	VPMULLQ lanes<>+0x40(SB), Z28, Z1
	VPADDQ  Z2, Z0, Z0
	VPADDQ  Z2, Z1, Z1
	VPSLLQ  $4, Z28, Z28
	VPBROADCASTQ max+16(FP), Z29
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z30
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z31

block:
	MIX64(Z0, Z2, Z4)
	MIX64(Z1, Z3, Z5)
	// K1, K2: lanes whose draw is at or under max (predicate 2, LE).
	VPCMPUQ  $2, Z29, Z2, K1
	VPCMPUQ  $2, Z29, Z3, K2
	KORTESTW K1, K2
	JNZ      hit
	VPADDQ   Z28, Z0, Z0
	VPADDQ   Z28, Z1, Z1
	ADDQ     $16, DX
	DECQ     CX
	JNZ      block
	VZEROUPPER

none:
	MOVQ DX, ret+24(FP)
	RET

hit:
	// The first hit is the lowest set bit of K2:K1.
	KMOVW K1, AX
	KMOVW K2, BX
	SHLL  $8, BX
	ORL   BX, AX
	BSFL  AX, AX
	ADDQ  AX, DX
	MOVQ  DX, ret+24(FP)
	VZEROUPPER
	RET
