//go:build amd64

#include "textflag.h"

// Element-wise kernels of the quantized serving tier, AVX-512 and AVX2. Each
// reproduces its Go definition in quant8.go bit for bit, one rounding per
// step: the AVX-512 routines take any n and finish under a K-mask, the AVX2
// ones require n > 0 and n%8 == 0 and leave the rest to Go.
//
// Packing (packRow8*Asm) works in float64 lanes, as math.Round does: the
// float32 inputs widen exactly, q = w/scale is the one rounded division the
// definition makes, t = trunc(q) and q-t are exact, and t steps one away from
// zero where |q-t| >= 0.5 — round half away from zero, with NaN and ±Inf
// (a scale that underflowed to 0) passing through unchanged. The truncating
// conversion turns those, like anything out of range, into 0x80000000, as Go's
// int32(float64) does on amd64; the clamp to ±127 then packs them to -127.
// The codes are exact integers, so their int32 sum is the same in any order.
//
// Dequantizing (dequantRows8*Asm) is VPMULLD/VPSUBD for acc - zp*rowSum
// (wrapping, as Go's int32 arithmetic does), VCVTDQ2PS, two VMULPS and a
// VADDPS: the definition's four roundings in its order, and no FMA. A group's
// maximum is VMAXPS over its logits while they are in registers, plus a NaN
// test, since VMAXPS drops a NaN it already holds.

DATA q8abs32<>+0(SB)/4, $0x7fffffff
GLOBL q8abs32<>(SB), RODATA, $4
DATA q8pos127<>+0(SB)/4, $127
GLOBL q8pos127<>(SB), RODATA, $4
DATA q8neg127<>+0(SB)/4, $-127
GLOBL q8neg127<>(SB), RODATA, $4
DATA q8abs64<>+0(SB)/8, $0x7fffffffffffffff
GLOBL q8abs64<>(SB), RODATA, $8
DATA q8sign64<>+0(SB)/8, $0x8000000000000000
GLOBL q8sign64<>(SB), RODATA, $8
DATA q8half64<>+0(SB)/8, $0x3fe0000000000000
GLOBL q8half64<>(SB), RODATA, $8
DATA q8one64<>+0(SB)/8, $0x3ff0000000000000
GLOBL q8one64<>(SB), RODATA, $8
DATA q8neginf<>+0(SB)/4, $0xff800000
GLOBL q8neginf<>(SB), RODATA, $4
DATA q8nan<>+0(SB)/4, $0x7fc00000
GLOBL q8nan<>(SB), RODATA, $4

// tailmask: K1 = (1 << DX) - 1 for DX in [0,15]; clobbers AX, CX.
#define TAILMASK \
	MOVL $1, AX \
	MOVQ DX, CX \
	SHLL CX, AX \
	DECL AX     \
	KMOVW AX, K1

// PACK8_512: Z0 = eight quotients' numerators (float64) -> Y1 = their codes.
// Z8 = scale, Z9 = abs mask, Z10 = sign mask, Z11 = 0.5, Z12 = 1.0,
// Y13 = 127, Y14 = -127; clobbers Z2, Z3, K2.
#define PACK8_512 \
	VDIVPD      Z8, Z0, Z0         \
	VRNDSCALEPD $3, Z0, Z1         \
	VSUBPD      Z1, Z0, Z2         \
	VPANDQ      Z9, Z2, Z2         \
	VCMPPD      $0x1d, Z11, Z2, K2 \
	VPANDQ      Z10, Z0, Z3        \
	VPORQ       Z12, Z3, Z3        \
	VADDPD      Z3, Z1, K2, Z1     \
	VCVTTPD2DQ  Z1, Y1             \
	VPMINSD     Y13, Y1, Y1        \
	VPMAXSD     Y14, Y1, Y1

// PACK4_256(Q, T, C): Q = four numerators (float64) -> C = their codes, with
// the constants of PACK8_512 in Y8–Y12 and X13, X14; clobbers T and Y3, Y4.
// Where |q-t| < 0.5 the step added is +0, which leaves t's integer alone.
#define PACK4_256(Q, T, C) \
	VDIVPD      Y8, Q, Q           \
	VROUNDPD    $3, Q, T           \
	VSUBPD      T, Q, Y3           \
	VANDPD      Y9, Y3, Y3         \
	VCMPPD      $0x1d, Y11, Y3, Y3 \
	VANDPD      Y10, Q, Y4         \
	VORPD       Y12, Y4, Y4        \
	VANDPD      Y3, Y4, Y4         \
	VADDPD      Y4, T, T           \
	VCVTTPD2DQY T, C               \
	VPMINSD     X13, C, C          \
	VPMAXSD     X14, C, C

// func maxAbsBitsAVX512Asm(w *float32, n int64) uint32
// max over i of bits(w[i]) & 0x7fffffff, 0 when n == 0.
TEXT ·maxAbsBitsAVX512Asm(SB), NOSPLIT, $0-20
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), DX
	VPBROADCASTD q8abs32<>(SB), Z4
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1

mab5_blk32:
	CMPQ DX, $32
	JLT  mab5_blk16
	VPANDD  (SI), Z4, Z2
	VPANDD  64(SI), Z4, Z3
	VPMAXUD Z2, Z0, Z0
	VPMAXUD Z3, Z1, Z1
	ADDQ $128, SI
	SUBQ $32, DX
	JMP  mab5_blk32

mab5_blk16:
	CMPQ DX, $16
	JLT  mab5_tail
	VPANDD  (SI), Z4, Z2
	VPMAXUD Z2, Z0, Z0
	ADDQ $64, SI
	SUBQ $16, DX

mab5_tail:
	TESTQ DX, DX
	JE    mab5_reduce
	TAILMASK
	VMOVDQU32.Z (SI), K1, Z2
	VPANDD  Z2, Z4, Z2
	VPMAXUD Z2, Z0, Z0

mab5_reduce:
	VPMAXUD Z1, Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPMAXUD Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPMAXUD X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+16(FP)
	RET

// func maxAbsBitsAVX2Asm(w *float32, n int64) uint32
// Contract: n > 0 and n%8 == 0.
TEXT ·maxAbsBitsAVX2Asm(SB), NOSPLIT, $0-20
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), DX
	VPBROADCASTD q8abs32<>(SB), Y4
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

mab2_blk16:
	CMPQ DX, $16
	JLT  mab2_blk8
	VPAND   (SI), Y4, Y2
	VPAND   32(SI), Y4, Y3
	VPMAXUD Y2, Y0, Y0
	VPMAXUD Y3, Y1, Y1
	ADDQ $64, SI
	SUBQ $16, DX
	JMP  mab2_blk16

mab2_blk8:
	TESTQ DX, DX
	JE    mab2_reduce
	VPAND   (SI), Y4, Y2
	VPMAXUD Y2, Y0, Y0

mab2_reduce:
	VPMAXUD Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPMAXUD X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+16(FP)
	RET

// func packRow8AVX512Asm(w *float32, n int64, inv float64, dst *int8) int32
// dst[i] = code of w[i] against the scale inv, for i < n; returns their sum.
TEXT ·packRow8AVX512Asm(SB), NOSPLIT, $0-36
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), DX
	VBROADCASTSD inv+16(FP), Z8
	MOVQ dst+24(FP), DI
	VBROADCASTSD q8abs64<>(SB), Z9
	VBROADCASTSD q8sign64<>(SB), Z10
	VBROADCASTSD q8half64<>(SB), Z11
	VBROADCASTSD q8one64<>(SB), Z12
	VPBROADCASTD q8pos127<>(SB), Y13
	VPBROADCASTD q8neg127<>(SB), Y14
	VPXOR Y15, Y15, Y15

pk5_blk8:
	CMPQ DX, $8
	JLT  pk5_tail
	VCVTPS2PD (SI), Z0
	PACK8_512
	VPADDD  Y1, Y15, Y15
	VPMOVDB Y1, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, DX
	JMP  pk5_blk8

pk5_tail:
	TESTQ DX, DX
	JE    pk5_reduce
	TAILMASK
	VCVTPS2PD.Z (SI), K1, Z0
	PACK8_512
	VPADDD  Y1, Y15, K1, Y15 // the dead lanes' 0/scale may be NaN: not summed
	VPMOVDB Y1, K1, (DI)

pk5_reduce:
	VEXTRACTI128 $1, Y15, X0
	VPADDD  X15, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+32(FP)
	RET

// func packRow8AVX2Asm(w *float32, n int64, inv float64, dst *int8) int32
// Contract: n > 0 and n%8 == 0. Eight elements per round, as two halves.
TEXT ·packRow8AVX2Asm(SB), NOSPLIT, $0-36
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), DX
	VBROADCASTSD inv+16(FP), Y8
	MOVQ dst+24(FP), DI
	VBROADCASTSD q8abs64<>(SB), Y9
	VBROADCASTSD q8sign64<>(SB), Y10
	VBROADCASTSD q8half64<>(SB), Y11
	VBROADCASTSD q8one64<>(SB), Y12
	VPBROADCASTD q8pos127<>(SB), X13
	VPBROADCASTD q8neg127<>(SB), X14
	VPXOR X15, X15, X15

pk2_blk8:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y5
	PACK4_256(Y0, Y1, X1)
	PACK4_256(Y5, Y6, X6)
	VPADDD    X1, X15, X15
	VPADDD    X6, X15, X15
	VPACKSSDW X6, X1, X1
	VPACKSSWB X1, X1, X1
	MOVQ      X1, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, DX
	JNE  pk2_blk8

	VPHADDD X15, X15, X0
	VPHADDD X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+32(FP)
	RET

// MAXSTORE: the largest float of X8's four into (BX), or a NaN when the
// group held one (Z flag clear on entry); BX steps to the next maximum.
// Which of two equal zeros VMAXPS keeps is unspecified, and so is the sign
// of a zero maximum. Clobbers X10.
#define MAXSTORE(nan, store) \
	JEQ       store         \
	VMOVSS    q8nan<>(SB), X8 \
	JMP       nan           \
store:                      \
	VPERMILPS $0x4E, X8, X10 \
	VMAXPS    X10, X8, X8   \
	VPERMILPS $0xB1, X8, X10 \
	VMAXPS    X10, X8, X8   \
nan:                        \
	VMOVSS    X8, (BX)      \
	ADDQ      $4, BX

// func dequantRows8AVX512Asm(acc *int32, scales *float32, rowSums *int32, bias *float32, sa float32, zp int32, out *float32, n int64, maxes *float32)
//
// The rows go a group of up to four blocks at a time: Z8 keeps the group's
// lane-wise maximum — VMAXPS with the new logits as the operand it returns
// on a NaN, the masked tail merged in under K1 — and K2 the lanes that were
// NaN (VMAXPS does not keep one); then, unless maxes is nil, Z8 is reduced
// to one float and stored.
TEXT ·dequantRows8AVX512Asm(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), SI
	MOVQ scales+8(FP), R8
	MOVQ rowSums+16(FP), R9
	MOVQ bias+24(FP), R10
	VBROADCASTSS sa+32(FP), Z6
	MOVL zp+36(FP), AX
	VPBROADCASTD AX, Z7
	MOVQ out+40(FP), DI
	MOVQ n+48(FP), DX
	MOVQ maxes+56(FP), BX

dq5_group:
	TESTQ DX, DX
	JE    dq5_done
	VBROADCASTSS q8neginf<>(SB), Z8
	KXORW K2, K2, K2
	MOVQ  $4, R11

dq5_blk16:
	CMPQ DX, $16
	JLT  dq5_tail
	VPMULLD   (R9), Z7, Z1
	VMOVDQU32 (SI), Z0
	VPSUBD    Z1, Z0, Z0
	VCVTDQ2PS Z0, Z0
	VMULPS    (R8), Z6, Z2
	VMULPS    Z0, Z2, Z2
	VADDPS    (R10), Z2, Z2
	VMOVUPS   Z2, (DI)
	VMAXPS Z2, Z8, Z8
	VCMPPS $3, Z2, Z2, K3
	KORW   K3, K2, K2
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, DI
	SUBQ $16, DX
	DECQ R11
	JNE  dq5_blk16
	JMP  dq5_reduce

dq5_tail:
	TESTQ DX, DX
	JE    dq5_reduce
	TAILMASK
	VMOVDQU32.Z (R9), K1, Z1
	VPMULLD     Z1, Z7, Z1
	VMOVDQU32.Z (SI), K1, Z0
	VPSUBD      Z1, Z0, Z0
	VCVTDQ2PS   Z0, Z0
	VMOVUPS.Z   (R8), K1, Z2
	VMULPS      Z2, Z6, Z2
	VMULPS      Z0, Z2, Z2
	VMOVUPS.Z   (R10), K1, Z3
	VADDPS      Z3, Z2, Z2
	VMOVUPS     Z2, K1, (DI)
	VMAXPS Z2, Z8, K1, Z8
	VCMPPS $3, Z2, Z2, K1, K3
	KORW   K3, K2, K2
	XORQ   DX, DX

dq5_reduce:
	TESTQ BX, BX
	JE    dq5_group
	VEXTRACTF64X4 $1, Z8, Y9
	VMAXPS        Y9, Y8, Y8
	VEXTRACTF128  $1, Y8, X9
	VMAXPS        X9, X8, X8
	KORTESTW      K2, K2
	MAXSTORE(dq5_nan, dq5_store)
	JMP dq5_group

dq5_done:
	VZEROUPPER
	RET

// func dequantRows8AVX2Asm(acc *int32, scales *float32, rowSums *int32, bias *float32, sa float32, zp int32, out *float32, n int64, maxes *float32)
// Contract: n > 0 and n%8 == 0. A group of up to eight blocks at a time as
// in the AVX-512 routine, Y9 accumulating the NaN lanes; the Go wrapper
// folds the rows past n into the last group.
TEXT ·dequantRows8AVX2Asm(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), SI
	MOVQ scales+8(FP), R8
	MOVQ rowSums+16(FP), R9
	MOVQ bias+24(FP), R10
	VBROADCASTSS sa+32(FP), Y6
	MOVL zp+36(FP), AX
	MOVQ AX, X7
	VPBROADCASTD X7, Y7
	MOVQ out+40(FP), DI
	MOVQ n+48(FP), DX
	MOVQ maxes+56(FP), BX

dq2_group:
	VBROADCASTSS q8neginf<>(SB), Y8
	VXORPS Y9, Y9, Y9
	MOVQ   $8, R11

dq2_blk8:
	VPMULLD   (R9), Y7, Y1
	VMOVDQU   (SI), Y0
	VPSUBD    Y1, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    (R8), Y6, Y2
	VMULPS    Y0, Y2, Y2
	VADDPS    (R10), Y2, Y2
	VMOVUPS   Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DI
	VMAXPS Y2, Y8, Y8
	VCMPPS $3, Y2, Y2, Y3
	VORPS  Y3, Y9, Y9
	SUBQ $8, DX
	JE   dq2_reduce
	DECQ R11
	JNE  dq2_blk8

dq2_reduce:
	TESTQ BX, BX
	JE    dq2_next
	VEXTRACTF128 $1, Y8, X10
	VMAXPS       X10, X8, X8
	VMOVMSKPS    Y9, AX
	TESTL        AX, AX
	MAXSTORE(dq2_nan, dq2_store)

dq2_next:
	TESTQ DX, DX
	JNE   dq2_group
	VZEROUPPER
	RET
