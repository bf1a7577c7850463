#include "textflag.h"

// Bit identity with the Go kernels and the two-pass kernel. Every vector
// lane holds a different output: four consecutive U rows of a panel in
// the dot products, four consecutive W1 columns in the rank-1 sums. Each
// output still adds its terms one at a time in the scalar order, starting
// from +0 (VXORPD): a U row over ascending columns, first adding
// Q_ji·x_W1[i] and then subtracting Q_ji·x_W2[i]; a W1 column over
// ascending rows. No sum is reassociated, an IEEE product is
// exact-rounded whichever operand comes first, and no FMA is used
// (VMULPD then VADDPD or VSUBPD rounds twice, as the scalar code does),
// so every bit matches. The rank-1 kernels also store each W1 sum's W2
// twin, 0 − v (VSUBPD from a zeroed register), as negateW2 does.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// PANELSTEP multiplies one panel column (the 32 U rows at SI) by the
// broadcast position Y8 and adds (op = VADDPD) or subtracts
// (op = VSUBPD) the products onto the row sums Y0..Y7, four rows each.
#define PANELSTEP(op) \
	VMULPD 0(SI), Y8, Y9;    \
	op     Y9, Y0, Y0;       \
	VMULPD 32(SI), Y8, Y10;  \
	op     Y10, Y1, Y1;      \
	VMULPD 64(SI), Y8, Y11;  \
	op     Y11, Y2, Y2;      \
	VMULPD 96(SI), Y8, Y12;  \
	op     Y12, Y3, Y3;      \
	VMULPD 128(SI), Y8, Y13; \
	op     Y13, Y4, Y4;      \
	VMULPD 160(SI), Y8, Y14; \
	op     Y14, Y5, Y5;      \
	VMULPD 192(SI), Y8, Y15; \
	op     Y15, Y6, Y6;      \
	VMULPD 224(SI), Y8, Y9;  \
	op     Y9, Y7, Y7

// func twinPanelAVX2(panel, x1, x2 []float64, s *[32]float64)
TEXT ·twinPanelAVX2(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ x1_base+24(FP), AX
	MOVQ x1_len+32(FP), CX
	MOVQ x2_base+48(FP), BX
	MOVQ s+72(FP), DI
	MOVQ SI, R8
	MOVQ CX, DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     panelDone

	// First every W1 column, then every W2 column, each in ascending
	// order: the panel is streamed twice.
panelPlus:
	VBROADCASTSD (AX), Y8
	PANELSTEP(VADDPD)
	ADDQ         $256, SI
	ADDQ         $8, AX
	DECQ         CX
	JNZ          panelPlus

	MOVQ R8, SI

panelMinus:
	VBROADCASTSD (BX), Y8
	PANELSTEP(VSUBPD)
	ADDQ         $256, SI
	ADDQ         $8, BX
	DECQ         DX
	JNZ          panelMinus

panelDone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// STOREW2 stores the four column sums acc at off(DI) and their W2
// twins, 0 − acc with +0 in Y8, at off(R9).
#define STOREW2(acc, off) \
	VMOVUPD acc, off(DI); \
	VSUBPD  acc, Y8, Y9;  \
	VMOVUPD Y9, off(R9)

// func twinRank1x16AVX2(q []float64, stride int, xu []float64, s1, s2 *[16]float64)
TEXT ·twinRank1x16AVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ xu_base+32(FP), AX
	MOVQ xu_len+40(FP), CX
	MOVQ s1+56(FP), DI
	MOVQ s2+64(FP), R9

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     rank16Done

rank16Loop:
	VBROADCASTSD (AX), Y8
	VMULPD       0(SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(SI), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(SI), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(SI), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         DX, SI
	ADDQ         $8, AX
	DECQ         CX
	JNZ          rank16Loop

rank16Done:
	VXORPD Y8, Y8, Y8
	STOREW2(Y0, 0)
	STOREW2(Y1, 32)
	STOREW2(Y2, 64)
	STOREW2(Y3, 96)
	VZEROUPPER
	RET

// func twinRank1x4AVX2(q []float64, stride int, xu []float64, s1, s2 *[4]float64)
TEXT ·twinRank1x4AVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ xu_base+32(FP), AX
	MOVQ xu_len+40(FP), CX
	MOVQ s1+56(FP), DI
	MOVQ s2+64(FP), R9

	VXORPD Y0, Y0, Y0
	TESTQ  CX, CX
	JZ     rank4Done

rank4Loop:
	VBROADCASTSD (AX), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         DX, SI
	ADDQ         $8, AX
	DECQ         CX
	JNZ          rank4Loop

rank4Done:
	VXORPD Y8, Y8, Y8
	STOREW2(Y0, 0)
	VZEROUPPER
	RET
