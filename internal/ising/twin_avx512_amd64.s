#include "textflag.h"

// The AVX-512 twin kernels: the AVX2 kernels (twin_amd64.s) at eight
// doubles per ZMM register, with the same bit-identity argument and the
// same resuming and checkpoints. Each
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

// PANELSTORE512 stores the 32 row sums Z0..Z3 at base.
#define PANELSTORE512(base) \
	VMOVUPD Z0, 0(base);   \
	VMOVUPD Z1, 64(base);  \
	VMOVUPD Z2, 128(base); \
	VMOVUPD Z3, 192(base)

// func twinPanelAVX512(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int)
TEXT ·twinPanelAVX512(SB), NOSPLIT, $0-160
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
	JEQ  panel512From
	MOVQ $16, R10

panel512From:
	CMPQ    from_len+112(FP), $0
	JEQ     panel512Zero
	VMOVUPD 0(R12), Z0
	VMOVUPD 64(R12), Z1
	VMOVUPD 128(R12), Z2
	VMOVUPD 192(R12), Z3
	JMP     panel512PlusStart

panel512Zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	// First the W1 terms left (p1, x1), then the W2 terms left (p2,
	// x2), each in ascending order: the panel512 is streamed twice. Each
	// half runs in spans that end at a checkpoint or at its end.
panel512PlusStart:
	TESTQ CX, CX
	JZ    panel512MinusStart

panel512PlusSpan:
	MOVQ    CX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, CX
	SUBQ    R13, R10

panel512Plus:
	VBROADCASTSD (AX), Z8
	PANELSTEP512(VADDPD)
	ADDQ         $256, SI
	ADDQ         $8, AX
	DECQ         R13
	JNZ          panel512Plus
	TESTQ        R10, R10
	JNZ          panel512PlusNext
	PANELSTORE512(R11)
	ADDQ         R9, R11
	MOVQ         $16, R10

panel512PlusNext:
	TESTQ CX, CX
	JNZ   panel512PlusSpan

panel512MinusStart:
	TESTQ DX, DX
	JZ    panel512Done
	MOVQ  R8, SI

panel512MinusSpan:
	MOVQ    DX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, DX
	SUBQ    R13, R10

panel512Minus:
	VBROADCASTSD (BX), Z8
	PANELSTEP512(VSUBPD)
	ADDQ         $256, SI
	ADDQ         $8, BX
	DECQ         R13
	JNZ          panel512Minus
	TESTQ        R10, R10
	JNZ          panel512MinusNext
	PANELSTORE512(R11)
	ADDQ         R9, R11
	MOVQ         $16, R10

panel512MinusNext:
	TESTQ DX, DX
	JNZ   panel512MinusSpan

panel512Done:
	PANELSTORE512(DI)
	VZEROUPPER
	RET

// RANK1STEP512 multiplies the eight W1 columns at off(SI) by the
// broadcast position Z8 into the temporary t and adds the products onto
// the column sums acc.
#define RANK1STEP512(off, t, acc) \
	VMULPD off(SI), Z8, t; \
	VADDPD t, acc, acc

// RANK1STORE512 stores the 64 column sums Z0..Z7 at base.
#define RANK1STORE512(base) \
	VMOVUPD Z0, 0(base);   \
	VMOVUPD Z1, 64(base);  \
	VMOVUPD Z2, 128(base); \
	VMOVUPD Z3, 192(base); \
	VMOVUPD Z4, 256(base); \
	VMOVUPD Z5, 320(base); \
	VMOVUPD Z6, 384(base); \
	VMOVUPD Z7, 448(base)

// STOREW512 stores the eight column sums acc at off(DI) and their W2
// twins, 0 − acc with +0 in Z8, at off(R9).
#define STOREW512(acc, off) \
	VMOVUPD acc, off(DI);   \
	VSUBPD  acc, Z8, Z9;    \
	VMOVUPD Z9, off(R9)

// func twinRank1x64AVX512(q []float64, stride int, xu []float64, s1, s2 *[64]float64, from, ck []float64)
TEXT ·twinRank1x64AVX512(SB), NOSPLIT, $0-120
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
	JEQ  rank64From
	MOVQ $32, R10

rank64From:
	CMPQ    from_len+80(FP), $0
	JEQ     rank64Zero
	VMOVUPD 0(R12), Z0
	VMOVUPD 64(R12), Z1
	VMOVUPD 128(R12), Z2
	VMOVUPD 192(R12), Z3
	VMOVUPD 256(R12), Z4
	VMOVUPD 320(R12), Z5
	VMOVUPD 384(R12), Z6
	VMOVUPD 448(R12), Z7
	JMP     rank64Start

rank64Zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

rank64Start:
	TESTQ CX, CX
	JZ    rank64Done

rank64Span:
	MOVQ    CX, R13
	CMPQ    R10, R13
	CMOVQLT R10, R13
	SUBQ    R13, CX
	SUBQ    R13, R10

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
	DECQ         R13
	JNZ          rank64Loop
	TESTQ        R10, R10
	JNZ          rank64Next
	RANK1STORE512(R11)
	ADDQ         DX, R11
	MOVQ         $32, R10

rank64Next:
	TESTQ CX, CX
	JNZ   rank64Span

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
