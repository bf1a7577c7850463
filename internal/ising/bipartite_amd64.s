#include "textflag.h"

// Bit identity with the Go tiles and the two-pass kernel. Every vector
// lane holds a different output: an out_W column in the rank-1 update, a
// U row in the dot products. Each output still adds its terms one at a
// time in the scalar order, starting from +0 — out_W[w] over ascending
// rows (ow arrives holding the sum of earlier tiles, +0 before the first),
// a row's dot product over ascending columns (VXORPD zeroes the sums, and
// the 4×4 transpose hands the adds column w before w+1, w+2, w+3). No sum
// is reassociated, an IEEE product is exact-rounded whichever operand
// comes first, and no FMA is used (VMULPD then VADDPD rounds twice, as
// the scalar code does), so every bit matches.

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

// ROWS4 handles rows r0..r3 of the 4-column block at byte offset CX
// (AX = &xw[0]; Y5 = the block's out_W sums; x0..x3 = the rows' U-side
// positions, broadcast). It adds x0·r0 … x3·r3 onto Y5 in row order,
// forms the products r·xw (Y0..Y3, one row each), transposes them to one
// column per register, and adds the columns onto sum (one row per lane)
// in column order. Y4 is scratch. With pk,c = rk·xw[c], the unpacks
// leave Y4 = p0,0 p1,0 p0,2 p1,2 and Y0 = p0,1 p1,1 p0,3 p1,3 (Y1, Y2
// the same for rows 2 and 3), and each VPERM2F128 joins two 128-bit
// halves into one column p0,c p1,c p2,c p3,c.
#define ROWS4(r0, r1, r2, r3, x0, x1, x2, x3, sum) \
	VMOVUPD    (r0)(CX*1), Y0; \
	VMULPD     x0, Y0, Y4; \
	VADDPD     Y4, Y5, Y5; \
	VMULPD     (AX)(CX*1), Y0, Y0; \
	VMOVUPD    (r1)(CX*1), Y1; \
	VMULPD     x1, Y1, Y4; \
	VADDPD     Y4, Y5, Y5; \
	VMULPD     (AX)(CX*1), Y1, Y1; \
	VMOVUPD    (r2)(CX*1), Y2; \
	VMULPD     x2, Y2, Y4; \
	VADDPD     Y4, Y5, Y5; \
	VMULPD     (AX)(CX*1), Y2, Y2; \
	VMOVUPD    (r3)(CX*1), Y3; \
	VMULPD     x3, Y3, Y4; \
	VADDPD     Y4, Y5, Y5; \
	VMULPD     (AX)(CX*1), Y3, Y3; \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y0; \
	VUNPCKLPD  Y3, Y2, Y1; \
	VUNPCKHPD  Y3, Y2, Y2; \
	VPERM2F128 $0x20, Y1, Y4, Y3; \
	VADDPD     Y3, sum, sum; \
	VPERM2F128 $0x20, Y2, Y0, Y3; \
	VADDPD     Y3, sum, sum; \
	VPERM2F128 $0x31, Y1, Y4, Y3; \
	VADDPD     Y3, sum, sum; \
	VPERM2F128 $0x31, Y2, Y0, Y3; \
	VADDPD     Y3, sum, sum

// func bipartiteTile8AVX2(rows, xw, ow []float64, xu, s *[8]float64)
TEXT ·bipartiteTile8AVX2(SB), NOSPLIT, $0-88
	MOVQ rows_base+0(FP), SI
	MOVQ xw_base+24(FP), AX
	MOVQ xw_len+32(FP), DX
	MOVQ ow_base+48(FP), BX
	MOVQ xu+72(FP), DI

	// Row k of the tile starts k·len(xw)·8 bytes after row 0.
	MOVQ DX, CX
	SHLQ $3, CX
	LEAQ (SI)(CX*1), R8  // row 1
	LEAQ (SI)(CX*2), R9  // row 2
	LEAQ (R8)(CX*2), R10 // row 3
	LEAQ (SI)(CX*4), R11 // row 4
	LEAQ (R8)(CX*4), R12 // row 5
	LEAQ (R9)(CX*4), R13 // row 6

	VBROADCASTSD 0(DI), Y8
	VBROADCASTSD 8(DI), Y9
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	VBROADCASTSD 32(DI), Y12
	VBROADCASTSD 40(DI), Y13
	VBROADCASTSD 48(DI), Y14
	VBROADCASTSD 56(DI), Y15
	LEAQ (R10)(CX*4), DI // row 7

	// Y6 and Y7 hold the dot products of rows 0-3 and 4-7.
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// CX walks the byte offset of the block's first column up to DX,
	// the end of the last whole 4-column block.
	ANDQ $-4, DX
	SHLQ $3, DX
	XORQ CX, CX
	CMPQ CX, DX
	JAE  done

loop:
	VMOVUPD (BX)(CX*1), Y5
	ROWS4(SI, R8, R9, R10, Y8, Y9, Y10, Y11, Y6)
	ROWS4(R11, R12, R13, DI, Y12, Y13, Y14, Y15, Y7)
	VMOVUPD Y5, (BX)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, DX
	JB      loop

done:
	MOVQ    s+80(FP), AX
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	VZEROUPPER
	RET
