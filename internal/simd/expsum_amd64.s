//go:build amd64

#include "textflag.h"

// ExpSum in float64 vector lanes: a transcription, one instruction per lane,
// of the FMA branch (avxfma) of math.Exp's amd64 assembly
// ($GOROOT/src/math/exp_amd64.s), which every host with an assembly tier takes
// (the AVX2 tier requires FMA). Per lane:
//
//	a = float64(x - m)                  VSUBPS, VCVTPS2PD
//	k = round(a * LOG2E)                VMULPD, VCVTPD2DQ (MXCSR: nearest even)
//	a = a - k*LN2U; a = a - k*LN2L      two VFNMADD231PD
//	a = a * 0.0625
//	p = ((((((c8*a + c7)*a + c6)*a + c5)*a + c4)*a + c3)*a + 0.5)*a + 1
//	y = a * p                           seven VFMADD213PD, then VMULPD
//	y = y * (y + 2), three times, then y = (y + 2)*y + 1
//	e = y * 2^k                         2^k built as (k+1023) << 52
//
// archExp leaves this fast path where k+1023 is not in [1, 2046]: NaN and
// ±Inf (VCVTPD2DQ gives 0x80000000), overflow (any a > 709.78 rounds to
// k = 1024, and so do a few a just below it) and the denormal and underflow
// band. So a block goes through the assembly only when every lane has
// k+1022 <= 2045 unsigned; otherwise the routine stops before it, storing and
// summing nothing of it, and returns. The block's exps are stored as float32
// (VCVTPD2PS) and added to the running sum one at a time, lane 0 first, with
// VADDSD: the definition's order.
//
// That sum is one dependent chain, an add per element, and a block's exps
// take far longer than its adds. So the loop is software-pipelined: each
// round computes and stores block i+1's exps, then adds block i's (held in
// Z5/Y5) onto the sum, and the chain runs beside the next block's polynomial
// instead of after it.
//
// Contract: n > 0 and a multiple of the routine's lane count.

DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5 // c8
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4 // c7
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3 // c6
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3 // c5
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2 // c4
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1 // c3
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/4, $1022
DATA expc<>+108(SB)/4, $2045
DATA expc<>+112(SB)/4, $1023
GLOBL expc<>(SB), RODATA, $116

// EXP8_512(bad): Z0 = the eight exps of the block at SI, or a jump to bad
// when a lane is off the fast path. Clobbers Z1, Z2, Y3, K1.
#define EXP8_512(bad) \
	VMOVUPS   (SI), Y0 \
	VSUBPS    Y15, Y0, Y0 \
	VCVTPS2PD Y0, Z0 \
	VMULPD    Z16, Z0, Z1 \
	VCVTPD2DQ Z1, Y2 \
	VPADDD    Y29, Y2, Y3 \
	VPCMPUD   $6, Y30, Y3, K1 \
	KORTESTW  K1, K1 \
	JNE       bad \
	VCVTDQ2PD Y2, Z1 \
	VFNMADD231PD Z17, Z1, Z0 \
	VFNMADD231PD Z18, Z1, Z0 \
	VMULPD    Z19, Z0, Z0 \
	VMOVAPD   Z20, Z1 \
	VFMADD213PD Z21, Z0, Z1 \
	VFMADD213PD Z22, Z0, Z1 \
	VFMADD213PD Z23, Z0, Z1 \
	VFMADD213PD Z24, Z0, Z1 \
	VFMADD213PD Z25, Z0, Z1 \
	VFMADD213PD Z26, Z0, Z1 \
	VFMADD213PD Z27, Z0, Z1 \
	VMULPD    Z1, Z0, Z0 \
	VADDPD    Z28, Z0, Z1 \
	VMULPD    Z1, Z0, Z0 \
	VADDPD    Z28, Z0, Z1 \
	VMULPD    Z1, Z0, Z0 \
	VADDPD    Z28, Z0, Z1 \
	VMULPD    Z1, Z0, Z0 \
	VADDPD    Z28, Z0, Z1 \
	VFMADD213PD Z27, Z1, Z0 \
	VPADDD    Y31, Y2, Y2 \
	VPMOVZXDQ Y2, Z2 \
	VPSLLQ    $52, Z2, Z2 \
	VMULPD    Z2, Z0, Z0

// SUM4(X, Y): X14 += the four float64 lanes of Y (X its low half), lane 0
// first, one VADDSD each. Clobbers X3.
#define SUM4(X, Y) \
	VADDSD    X, X14, X14 \
	VPERMILPD $1, X, X3 \
	VADDSD    X3, X14, X14 \
	VEXTRACTF128 $1, Y, X3 \
	VADDSD    X3, X14, X14 \
	VPERMILPD $1, X3, X3 \
	VADDSD    X3, X14, X14

// func expSumAVX512Asm(x *float32, m float32, out *float32, n int64, z float64) (sum float64, done int64)
// Eight lanes per block; the constants live in Z16–Z31, m in Y15, the sum in
// X14 and the block whose exps are still to be added in Z5.
TEXT ·expSumAVX512Asm(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	VBROADCASTSS m+8(FP), Y15
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), DX
	VMOVSD z+32(FP), X14
	MOVQ DX, BX
	VBROADCASTSD expc<>+0(SB), Z16
	VBROADCASTSD expc<>+8(SB), Z17
	VBROADCASTSD expc<>+16(SB), Z18
	VBROADCASTSD expc<>+24(SB), Z19
	VBROADCASTSD expc<>+32(SB), Z20
	VBROADCASTSD expc<>+40(SB), Z21
	VBROADCASTSD expc<>+48(SB), Z22
	VBROADCASTSD expc<>+56(SB), Z23
	VBROADCASTSD expc<>+64(SB), Z24
	VBROADCASTSD expc<>+72(SB), Z25
	VBROADCASTSD expc<>+80(SB), Z26
	VBROADCASTSD expc<>+88(SB), Z27
	VBROADCASTSD expc<>+96(SB), Z28
	VPBROADCASTD expc<>+104(SB), Y29
	VPBROADCASTD expc<>+108(SB), Y30
	VPBROADCASTD expc<>+112(SB), Y31

	EXP8_512(ex5_done)
	VCVTPD2PS Z0, Y1
	VMOVUPS   Y1, (DI)
	JMP ex5_next

ex5_blk8:
	EXP8_512(ex5_last)
	VCVTPD2PS Z0, Y1
	VMOVUPS   Y1, (DI)
	SUM4(X5, Y5)
	VEXTRACTF64X4 $1, Z5, Y4
	SUM4(X4, Y4)

ex5_next:
	VMOVAPD Z0, Z5
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JNE  ex5_blk8

ex5_last:
	SUM4(X5, Y5)
	VEXTRACTF64X4 $1, Z5, Y4
	SUM4(X4, Y4)

ex5_done:
	SUBQ DX, BX
	VZEROUPPER
	MOVSD X14, sum+40(FP)
	MOVQ  BX, done+48(FP)
	RET

// EXP4_256(bad): Y0 = the four exps of the block at SI, or a jump to bad.
// Clobbers Y1, Y2, X3, Y4.
#define EXP4_256(bad) \
	VMOVUPS    (SI), X0 \
	VSUBPS     X15, X0, X0 \
	VCVTPS2PD  X0, Y0 \
	VMULPD     Y13, Y0, Y1 \
	VCVTPD2DQY Y1, X2 \
	VPADDD     X7, X2, X3 \
	VPMAXUD    X6, X3, X3 \
	VPXOR      X6, X3, X3 \
	VPTEST     X3, X3 \
	JNE        bad \
	VCVTDQ2PD  X2, Y1 \
	VFNMADD231PD Y12, Y1, Y0 \
	VFNMADD231PD Y11, Y1, Y0 \
	VBROADCASTSD expc<>+24(SB), Y4 \
	VMULPD     Y4, Y0, Y0 \
	VBROADCASTSD expc<>+32(SB), Y1 \
	VBROADCASTSD expc<>+40(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VBROADCASTSD expc<>+48(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VBROADCASTSD expc<>+56(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VBROADCASTSD expc<>+64(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VBROADCASTSD expc<>+72(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VBROADCASTSD expc<>+80(SB), Y4 \
	VFMADD213PD Y4, Y0, Y1 \
	VFMADD213PD Y8, Y0, Y1 \
	VMULPD     Y1, Y0, Y0 \
	VADDPD     Y9, Y0, Y1 \
	VMULPD     Y1, Y0, Y0 \
	VADDPD     Y9, Y0, Y1 \
	VMULPD     Y1, Y0, Y0 \
	VADDPD     Y9, Y0, Y1 \
	VMULPD     Y1, Y0, Y0 \
	VADDPD     Y9, Y0, Y1 \
	VFMADD213PD Y8, Y1, Y0 \
	VPADDD     X10, X2, X2 \
	VPMOVZXDQ  X2, Y2 \
	VPSLLQ     $52, Y2, Y2 \
	VMULPD     Y2, Y0, Y0

// func expSumAVX2Asm(x *float32, m float32, out *float32, n int64, z float64) (sum float64, done int64)
// Four lanes per block. Sixteen registers do not hold every constant, so
// 0.0625 and the polynomial's coefficients are broadcast from memory as they
// are used; m is in X15, the sum in X14 and the pending block in Y5.
TEXT ·expSumAVX2Asm(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	VBROADCASTSS m+8(FP), X15
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), DX
	VMOVSD z+32(FP), X14
	MOVQ DX, BX
	VBROADCASTSD expc<>+0(SB), Y13
	VBROADCASTSD expc<>+8(SB), Y12
	VBROADCASTSD expc<>+16(SB), Y11
	VPBROADCASTD expc<>+112(SB), X10
	VBROADCASTSD expc<>+96(SB), Y9
	VBROADCASTSD expc<>+88(SB), Y8
	VPBROADCASTD expc<>+104(SB), X7
	VPBROADCASTD expc<>+108(SB), X6

	EXP4_256(ex2_done)
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)
	JMP ex2_next

ex2_blk4:
	EXP4_256(ex2_last)
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)
	SUM4(X5, Y5)

ex2_next:
	VMOVAPD Y0, Y5
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, DX
	JNE  ex2_blk4

ex2_last:
	SUM4(X5, Y5)

ex2_done:
	SUBQ DX, BX
	VZEROUPPER
	MOVSD X14, sum+40(FP)
	MOVQ  BX, done+48(FP)
	RET
