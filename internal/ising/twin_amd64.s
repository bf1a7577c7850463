#include "textflag.h"

// Bit identity with the Go kernels and the two-pass kernel. Every vector
// lane holds a different output: four consecutive U rows of a panel in
// the dot products, four consecutive W1 columns in the rank-1 sums. Each
// output still adds its terms one at a time in the scalar order, starting
// from +0 (VXORPD) or from a stored partial sum (below): a U row over
// ascending columns, first adding
// Q_ji·x_W1[i] and then subtracting Q_ji·x_W2[i]; a W1 column over
// ascending rows. No sum is reassociated, an IEEE product is
// exact-rounded whichever operand comes first, and no FMA is used
// (VMULPD then VADDPD or VSUBPD rounds twice, as the scalar code does),
// so every bit matches. The rank-1 kernels also store each W1 sum's W2
// twin, 0 − v (VSUBPD from a zeroed register), as the Go wCols does.

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

// Resuming and checkpoints (see the chain kernels in twin.go). A kernel
// continues its chains from the partial sums in from when from is not
// empty, else from +0. When ck is not empty it stores the sums after
// every 16 terms of a panel kernel (twinUStride) and every 32 terms of a
// rank-1 kernel (twinWStride) into consecutive slots of ck, ckStride
// (panel) or stride (rank-1) floats apart. R10 counts the terms left to
// the next checkpoint; without ck it starts at 2^62 and never reaches 0
// within a call. The loops run in spans of R13 = min(R10, terms left)
// terms, so the inner loop counts one register, as it would without
// checkpoints.

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

// PANELSTORE stores the 32 row sums Y0..Y7 at base.
#define PANELSTORE(base) \
	VMOVUPD Y0, 0(base);   \
	VMOVUPD Y1, 32(base);  \
	VMOVUPD Y2, 64(base);  \
	VMOVUPD Y3, 96(base);  \
	VMOVUPD Y4, 128(base); \
	VMOVUPD Y5, 160(base); \
	VMOVUPD Y6, 192(base); \
	VMOVUPD Y7, 224(base)

// func twinPanelAVX2(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int)
TEXT ·twinPanelAVX2(SB), NOSPLIT, $0-160
	MOVQ p1_base+0(FP), SI
	MOVQ x1_base+24(FP), AX
	MOVQ x1_len+32(FP), CX
	MOVQ p2_base+48(FP), R8
	MOVQ x2_base+72(FP), BX
	MOVQ x2_len+80(FP), DX
	MOVQ s+96(FP), DI
	MOVQ from_base+104(FP), R12
	MOVQ ck_base+128(FP), R11
	MOVQ ckStride+152(FP), R9
	SHLQ $3, R9
	MOVQ $0x4000000000000000, R10
	CMPQ ck_len+136(FP), $0
	JEQ  panelFrom
	MOVQ $16, R10

panelFrom:
	CMPQ    from_len+112(FP), $0
	JEQ     panelZero
	VMOVUPD 0(R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	VMOVUPD 128(R12), Y4
	VMOVUPD 160(R12), Y5
	VMOVUPD 192(R12), Y6
	VMOVUPD 224(R12), Y7
	JMP     panelPlusStart

panelZero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// First the W1 terms left (p1, x1), then the W2 terms left (p2,
	// x2), each in ascending order: the panel is streamed twice. Each
	// half runs in spans that end at a checkpoint or at its end.
panelPlusStart:
	TESTQ CX, CX
	JZ    panelMinusStart

panelPlusSpan:
	MOVQ    CX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, CX
	SUBQ    R13, R10

panelPlus:
	VBROADCASTSD (AX), Y8
	PANELSTEP(VADDPD)
	ADDQ         $256, SI
	ADDQ         $8, AX
	DECQ         R13
	JNZ          panelPlus
	TESTQ        R10, R10
	JNZ          panelPlusNext
	PANELSTORE(R11)
	ADDQ         R9, R11
	MOVQ         $16, R10

panelPlusNext:
	TESTQ CX, CX
	JNZ   panelPlusSpan

panelMinusStart:
	TESTQ DX, DX
	JZ    panelDone
	MOVQ  R8, SI

panelMinusSpan:
	MOVQ    DX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, DX
	SUBQ    R13, R10

panelMinus:
	VBROADCASTSD (BX), Y8
	PANELSTEP(VSUBPD)
	ADDQ         $256, SI
	ADDQ         $8, BX
	DECQ         R13
	JNZ          panelMinus
	TESTQ        R10, R10
	JNZ          panelMinusNext
	PANELSTORE(R11)
	ADDQ         R9, R11
	MOVQ         $16, R10

panelMinusNext:
	TESTQ DX, DX
	JNZ   panelMinusSpan

panelDone:
	PANELSTORE(DI)
	VZEROUPPER
	RET

// STOREW2 stores the four column sums acc at off(DI) and their W2
// twins, 0 − acc with +0 in Y8, at off(R9).
#define STOREW2(acc, off) \
	VMOVUPD acc, off(DI); \
	VSUBPD  acc, Y8, Y9;  \
	VMOVUPD Y9, off(R9)

// func twinRank1x16AVX2(q []float64, stride int, xu []float64, s1, s2 *[16]float64, from, ck []float64)
TEXT ·twinRank1x16AVX2(SB), NOSPLIT, $0-120
	MOVQ q_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ xu_base+32(FP), AX
	MOVQ xu_len+40(FP), CX
	MOVQ s1+56(FP), DI
	MOVQ s2+64(FP), R9
	MOVQ from_base+72(FP), R12
	MOVQ ck_base+96(FP), R11
	MOVQ $0x4000000000000000, R10
	CMPQ ck_len+104(FP), $0
	JEQ  rank16From
	MOVQ $32, R10

rank16From:
	CMPQ from_len+80(FP), $0
	JEQ  rank16Zero
	VMOVUPD 0(R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	JMP  rank16Start

rank16Zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

rank16Start:
	TESTQ CX, CX
	JZ    rank16Done

rank16Span:
	MOVQ    CX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, CX
	SUBQ    R13, R10

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
	DECQ         R13
	JNZ          rank16Loop
	TESTQ        R10, R10
	JNZ          rank16Next
	VMOVUPD      Y0, 0(R11)
	VMOVUPD      Y1, 32(R11)
	VMOVUPD      Y2, 64(R11)
	VMOVUPD      Y3, 96(R11)
	ADDQ         DX, R11
	MOVQ         $32, R10

rank16Next:
	TESTQ CX, CX
	JNZ   rank16Span

rank16Done:
	VXORPD Y8, Y8, Y8
	STOREW2(Y0, 0)
	STOREW2(Y1, 32)
	STOREW2(Y2, 64)
	STOREW2(Y3, 96)
	VZEROUPPER
	RET

// func twinRank1x4AVX2(q []float64, stride int, xu []float64, s1, s2 *[4]float64, from, ck []float64)
TEXT ·twinRank1x4AVX2(SB), NOSPLIT, $0-120
	MOVQ q_base+0(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $3, DX
	MOVQ xu_base+32(FP), AX
	MOVQ xu_len+40(FP), CX
	MOVQ s1+56(FP), DI
	MOVQ s2+64(FP), R9
	MOVQ from_base+72(FP), R12
	MOVQ ck_base+96(FP), R11
	MOVQ $0x4000000000000000, R10
	CMPQ ck_len+104(FP), $0
	JEQ  rank4From
	MOVQ $32, R10

rank4From:
	CMPQ from_len+80(FP), $0
	JEQ  rank4Zero
	VMOVUPD (R12), Y0
	JMP  rank4Start

rank4Zero:
	VXORPD Y0, Y0, Y0

rank4Start:
	TESTQ CX, CX
	JZ    rank4Done

rank4Span:
	MOVQ    CX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, CX
	SUBQ    R13, R10

rank4Loop:
	VBROADCASTSD (AX), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         DX, SI
	ADDQ         $8, AX
	DECQ         R13
	JNZ          rank4Loop
	TESTQ        R10, R10
	JNZ          rank4Next
	VMOVUPD      Y0, (R11)
	ADDQ         DX, R11
	MOVQ         $32, R10

rank4Next:
	TESTQ CX, CX
	JNZ   rank4Span

rank4Done:
	VXORPD Y8, Y8, Y8
	STOREW2(Y0, 0)
	VZEROUPPER
	RET
