#include "textflag.h"

// Bit identity with wallStepGo. Each vector lane holds one spin and runs
// the scalar chain: every product is rounded before its add (VMULPD then
// VADDPD, no FMA) and each add keeps the scalar operand order. The wall
// branches become branch-free selects that are false on NaN:
//
//   - VMAXPD x, -1 and VMINPD x, +1 return their second source x unless
//     -1 > x or +1 < x holds, so a NaN or signed-zero position passes
//     through as the branches leave it;
//   - the momentum is cleared (to +0) where |x| > 1 under the ordered
//     GT_OQ compare, the union of the two wall tests;
//   - the dSB sign is +1 where x >= 0 under GE_OQ, else -1 (NaN too).

DATA stepPlusOne<>+0(SB)/8, $0x3ff0000000000000  // +1.0
GLOBL stepPlusOne<>(SB), RODATA|NOPTR, $8
DATA stepMinusOne<>+0(SB)/8, $0xbff0000000000000 // -1.0
GLOBL stepMinusOne<>(SB), RODATA|NOPTR, $8
DATA stepAbsMask<>+0(SB)/8, $0x7fffffffffffffff // clears the sign bit
GLOBL stepAbsMask<>(SB), RODATA|NOPTR, $8

// func wallStepAVX2(x, y, f, h, s []float64, k, c0, dt, dta float64)
TEXT ·wallStepAVX2(SB), NOSPLIT, $0-152
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ f_base+48(FP), DX
	MOVQ h_base+72(FP), R8
	MOVQ s_base+96(FP), R9

	VBROADCASTSD k+120(FP), Y10
	VBROADCASTSD c0+128(FP), Y11
	VBROADCASTSD dt+136(FP), Y12
	VBROADCASTSD dta+144(FP), Y13
	VBROADCASTSD stepPlusOne<>(SB), Y14
	VBROADCASTSD stepMinusOne<>(SB), Y15
	VBROADCASTSD stepAbsMask<>(SB), Y8
	VXORPD       Y9, Y9, Y9
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           stepDone

stepLoop:
	// fi = f + h (a nil h has a zero base).
	VMOVUPD (DX)(AX*8), Y1
	TESTQ   R8, R8
	JZ      stepUnbiased
	VADDPD  (R8)(AX*8), Y1, Y1

stepUnbiased:
	// y += dt·(k·x + c0·fi); x += dta·y.
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y0, Y10, Y3
	VMULPD  Y1, Y11, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y3, Y12, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  Y2, Y13, Y3
	VADDPD  Y3, Y0, Y0

	// Walls: x > 1 -> (1, +0), x < -1 -> (-1, +0).
	VANDPD  Y8, Y0, Y5
	VCMPPD  $0x1e, Y14, Y5, Y5 // |x| > 1, GT_OQ
	VANDNPD Y2, Y5, Y2
	VMAXPD  Y0, Y15, Y0
	VMINPD  Y0, Y14, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)

	// dSB signs (a nil s has a zero base): +1 where x >= 0, else -1.
	TESTQ     R9, R9
	JZ        stepNext
	VCMPPD    $0x1d, Y9, Y0, Y7 // GE_OQ
	VBLENDVPD Y7, Y14, Y15, Y7
	VMOVUPD   Y7, (R9)(AX*8)

stepNext:
	ADDQ $4, AX
	CMPQ AX, CX
	JB   stepLoop

stepDone:
	VZEROUPPER
	RET
