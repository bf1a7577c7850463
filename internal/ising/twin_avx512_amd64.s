#include "textflag.h"

// The AVX-512 twin kernels: the AVX2 kernels (twin_amd64.s) at eight
// doubles per ZMM register, with the same bit-identity argument. Each
// lane holds one output and adds its terms one at a time in the scalar
// order from +0, with VMULPD then VADDPD or VSUBPD (no FMA). Registers
// are zeroed with VPXORQ (VXORPD on ZMM needs AVX512DQ), and only Z0–Z15
// are used, so the closing VZEROUPPER leaves no dirty upper state.

// PANELSTEP512 multiplies one panel column (the 32 U rows at SI) by the
// broadcast position Z8 and adds (op = VADDPD) or subtracts
// (op = VSUBPD) the products onto the row sums Z0..Z3, eight rows each.
#define PANELSTEP512(op) \
	VMULPD 0(SI), Z8, Z9;    \
	op     Z9, Z0, Z0;       \
	VMULPD 64(SI), Z8, Z10;  \
	op     Z10, Z1, Z1;      \
	VMULPD 128(SI), Z8, Z11; \
	op     Z11, Z2, Z2;      \
	VMULPD 192(SI), Z8, Z12; \
	op     Z12, Z3, Z3

// func twinPanelAVX512(panel, x1, x2 []float64, s *[32]float64)
TEXT ·twinPanelAVX512(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ x1_base+24(FP), AX
	MOVQ x1_len+32(FP), CX
	MOVQ x2_base+48(FP), BX
	MOVQ s+72(FP), DI
	MOVQ SI, R8
	MOVQ CX, DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	TESTQ  CX, CX
	JZ     panel512Done

	// First every W1 column, then every W2 column, each in ascending
	// order: the panel is streamed twice.
panel512Plus:
	VBROADCASTSD (AX), Z8
	PANELSTEP512(VADDPD)
	ADDQ         $256, SI
	ADDQ         $8, AX
	DECQ         CX
	JNZ          panel512Plus

	MOVQ R8, SI

panel512Minus:
	VBROADCASTSD (BX), Z8
	PANELSTEP512(VSUBPD)
	ADDQ         $256, SI
	ADDQ         $8, BX
	DECQ         DX
	JNZ          panel512Minus

panel512Done:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	RET

// RANK1STEP512 multiplies the eight W1 columns at off(SI) by the
// broadcast position Z8 into the temporary t and adds the products onto
// the column sums acc.
#define RANK1STEP512(off, t, acc) \
	VMULPD off(SI), Z8, t; \
	VADDPD t, acc, acc

// STOREW512 stores the eight column sums acc at off(DI) and their W2
// twins, 0 − acc with +0 in Z8, at off(R9).
#define STOREW512(acc, off) \
	VMOVUPD acc, off(DI);   \
	VSUBPD  acc, Z8, Z9;    \
	VMOVUPD Z9, off(R9)

// func twinRank1x64AVX512(q []float64, stride int, xu []float64, s1, s2 *[64]float64)
TEXT ·twinRank1x64AVX512(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ xu_base+32(FP), AX
	MOVQ xu_len+40(FP), CX
	MOVQ s1+56(FP), DI
	MOVQ s2+64(FP), R9

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  CX, CX
	JZ     rank64Done

rank64Loop:
	VBROADCASTSD (AX), Z8
	RANK1STEP512(0, Z9, Z0)
	RANK1STEP512(64, Z10, Z1)
	RANK1STEP512(128, Z11, Z2)
	RANK1STEP512(192, Z12, Z3)
	RANK1STEP512(256, Z13, Z4)
	RANK1STEP512(320, Z14, Z5)
	RANK1STEP512(384, Z15, Z6)
	RANK1STEP512(448, Z9, Z7)
	ADDQ         DX, SI
	ADDQ         $8, AX
	DECQ         CX
	JNZ          rank64Loop

rank64Done:
	VPXORQ Z8, Z8, Z8
	STOREW512(Z0, 0)
	STOREW512(Z1, 64)
	STOREW512(Z2, 128)
	STOREW512(Z3, 192)
	STOREW512(Z4, 256)
	STOREW512(Z5, 320)
	STOREW512(Z6, 384)
	STOREW512(Z7, 448)
	VZEROUPPER
	RET
