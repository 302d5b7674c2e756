//go:build amd64

#include "textflag.h"

// AVX-512 kernel tier: 16 float32 lanes per zmm register, masked tails.
//
// Every function here accepts any n >= 0 (maxAVX512Asm requires n >= 1) and
// finishes the final partial block with a K-masked load/store, so no Go-side
// remainder loop is needed. As in the AVX2 tier, elementwise kernels use
// separate VMULPS/VADDPS (two roundings, bit-identical to the Go reference)
// and FMA appears only inside dot/sum reductions. The VCVTNEPS2BF16 kernels
// at the bottom additionally require AVX512-BF16 and are only installed in
// the dispatch table when CPUID reports it. The Go assembler has no
// AVX512-BF16 mnemonics, so VCVTNEPS2BF16 Z0 -> Y1 is hand-encoded
// (EVEX.512.F3.0F38.W0 72 /r with reg=Y1, rm=Z0): 62 F2 7E 48 72 C8.

DATA negInf32<>+0(SB)/4, $0xFF800000
GLOBL negInf32<>(SB), RODATA, $4

// tailmask: K1 = (1 << DX) - 1 for DX in [1,15]; clobbers AX, CX.
#define VCVTNEPS2BF16_Z0_Y1 \
	BYTE $0x62; BYTE $0xF2; BYTE $0x7E; BYTE $0x48; BYTE $0x72; BYTE $0xC8

#define TAILMASK \
	MOVL $1, AX \
	MOVQ DX, CX \
	SHLL CX, AX \
	DECL AX     \
	KMOVW AX, K1

// func dotAVX512Asm(a, b *float32, n int64) float32
TEXT ·dotAVX512Asm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), DX
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3

dot5_blk64:
	CMPQ DX, $64
	JLT  dot5_blk16
	VMOVUPS (SI), Z4
	VMOVUPS 64(SI), Z5
	VMOVUPS 128(SI), Z6
	VMOVUPS 192(SI), Z7
	VFMADD231PS (DI), Z4, Z0
	VFMADD231PS 64(DI), Z5, Z1
	VFMADD231PS 128(DI), Z6, Z2
	VFMADD231PS 192(DI), Z7, Z3
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $64, DX
	JMP  dot5_blk64

dot5_blk16:
	CMPQ DX, $16
	JLT  dot5_tail
	VMOVUPS (SI), Z4
	VFMADD231PS (DI), Z4, Z0
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  dot5_blk16

dot5_tail:
	TESTQ DX, DX
	JE    dot5_reduce
	TAILMASK
	VMOVUPS.Z (SI), K1, Z4
	VMOVUPS.Z (DI), K1, Z5
	VFMADD231PS Z5, Z4, Z0

dot5_reduce:
	VADDPS Z1, Z0, Z0
	VADDPS Z3, Z2, Z2
	VADDPS Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func axpyAVX512Asm(alpha float32, x, y *float32, n int64)
TEXT ·axpyAVX512Asm(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Z0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), DX

axpy5_blk16:
	CMPQ DX, $16
	JLT  axpy5_tail
	VMOVUPS (SI), Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  axpy5_blk16

axpy5_tail:
	TESTQ DX, DX
	JE    axpy5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (DI), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (DI)

axpy5_done:
	VZEROUPPER
	RET

// func axpyTwoAVX512Asm(gz float32, h, grad, w, dh *float32, n int64)
TEXT ·axpyTwoAVX512Asm(SB), NOSPLIT, $0-48
	VBROADCASTSS gz+0(FP), Z0
	MOVQ h+8(FP), SI
	MOVQ grad+16(FP), DI
	MOVQ w+24(FP), R8
	MOVQ dh+32(FP), R9
	MOVQ n+40(FP), DX

axpytwo5_blk16:
	CMPQ DX, $16
	JLT  axpytwo5_tail
	VMOVUPS (SI), Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	VMOVUPS (R8), Z2
	VMULPS  Z2, Z0, Z2
	VADDPS  (R9), Z2, Z2
	VMOVUPS Z2, (R9)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $16, DX
	JMP  axpytwo5_blk16

axpytwo5_tail:
	TESTQ DX, DX
	JE    axpytwo5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (DI), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (DI)
	VMOVUPS.Z (R8), K1, Z3
	VMULPS  Z3, Z0, Z3
	VMOVUPS.Z (R9), K1, Z4
	VADDPS  Z4, Z3, Z3
	VMOVUPS Z3, K1, (R9)

axpytwo5_done:
	VZEROUPPER
	RET

// func scaleAVX512Asm(alpha float32, x *float32, n int64)
TEXT ·scaleAVX512Asm(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Z0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX

scale5_blk16:
	CMPQ DX, $16
	JLT  scale5_tail
	VMOVUPS (SI), Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS Z1, (SI)
	ADDQ $64, SI
	SUBQ $16, DX
	JMP  scale5_blk16

scale5_tail:
	TESTQ DX, DX
	JE    scale5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS Z1, K1, (SI)

scale5_done:
	VZEROUPPER
	RET

// func addAVX512Asm(x, y *float32, n int64)
TEXT ·addAVX512Asm(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), DX

add5_blk16:
	CMPQ DX, $16
	JLT  add5_tail
	VMOVUPS (SI), Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  add5_blk16

add5_tail:
	TESTQ DX, DX
	JE    add5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z1
	VMOVUPS.Z (DI), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (DI)

add5_done:
	VZEROUPPER
	RET

// func maxAVX512Asm(x *float32, n int64) float32
// Requires n >= 1. Accumulators seed at -Inf; the masked tail merges into a
// -Inf-filled register so dead lanes never win. NaN handling follows VMAXPS
// (differs from the portable tier; callers never pass NaNs).
TEXT ·maxAVX512Asm(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), DX
	VBROADCASTSS negInf32<>(SB), Z0

max5_blk16:
	CMPQ DX, $16
	JLT  max5_tail
	VMOVUPS (SI), Z1
	VMAXPS Z1, Z0, Z0
	ADDQ $64, SI
	SUBQ $16, DX
	JMP  max5_blk16

max5_tail:
	TESTQ DX, DX
	JE    max5_reduce
	TAILMASK
	VBROADCASTSS negInf32<>(SB), Z1
	VMOVUPS (SI), K1, Z1
	VMAXPS Z1, Z0, Z0

max5_reduce:
	VEXTRACTF64X4 $1, Z0, Y1
	VMAXPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VSHUFPS $0xEE, X0, X0, X1
	VMAXPS X1, X0, X0
	VMOVSHDUP X0, X1
	VMAXSS X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+16(FP)
	RET

// func gatherArgMaxAVX512Asm(vals *float32, idx *int32, nbins, slots int64, win *uint8)
// DWTA winners, one lane per bin: win[b] = lowest s in [0, slots) maximizing
// vals[idx[s*nbins+b]]. Requires nbins >= 1, 1 <= slots <= 256 and every idx
// entry a valid position in vals (unchecked gathers). Each block of 16 bins
// gathers slot 0 as the running best, then per slot gathers, compares with
// _CMP_GT_OQ ($0x1E: strict, false on NaN — Go's float >) into K3 and moves
// value and slot number under K3, so ties keep the earlier slot. The last
// nbins%16 bins run as one more block under a K-mask: dead lanes are never
// loaded, gathered or stored.
TEXT ·gatherArgMaxAVX512Asm(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), SI
	MOVQ idx+8(FP), DI
	MOVQ nbins+16(FP), DX
	MOVQ slots+24(FP), R8
	MOVQ win+32(FP), R9
	MOVQ DX, R10
	SHLQ $2, R10            // bytes between two slots of one bin
	MOVL $1, AX
	VPBROADCASTD AX, Z5
	KXNORW K1, K1, K1       // live lanes of the block: all 16 until the tail

gam5_block:
	CMPQ DX, $16
	JGE  gam5_first
	TAILMASK

gam5_first:
	VMOVDQU32.Z (DI), K1, Z1
	KMOVW K1, K2            // a gather consumes its mask
	VPXORD Z0, Z0, Z0
	VGATHERDPS (SI)(Z1*4), K2, Z0 // running best = slot 0
	VPXORD Z2, Z2, Z2       // winning slot
	VPXORD Z3, Z3, Z3       // slot being scanned
	MOVQ DI, R11
	MOVQ R8, R12

gam5_slot:
	DECQ R12
	JE   gam5_store
	ADDQ R10, R11
	VPADDD Z5, Z3, Z3
	VMOVDQU32.Z (R11), K1, Z1
	KMOVW K1, K2
	VPXORD Z4, Z4, Z4       // no false dependency on the last gather
	VGATHERDPS (SI)(Z1*4), K2, Z4
	VCMPPS $0x1E, Z0, Z4, K3 // Z4 > Z0
	VMOVAPS Z4, K3, Z0
	VMOVDQA32 Z3, K3, Z2
	JMP  gam5_slot

gam5_store:
	VPMOVDB Z2, K1, (R9)
	ADDQ $64, DI
	ADDQ $16, R9
	SUBQ $16, DX
	JG   gam5_block
	VZEROUPPER
	RET

// func adamAVX512Asm(w, m, v, grad *float32, n int64, beta1, beta2, omb1, omb2, eps, corr float32)
// Same schedule as adamAVX2Asm at 16 lanes with a masked tail.
TEXT ·adamAVX512Asm(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), R8
	MOVQ m+8(FP), R9
	MOVQ v+16(FP), R10
	MOVQ grad+24(FP), R11
	MOVQ n+32(FP), DX
	VBROADCASTSS beta1+40(FP), Z0
	VBROADCASTSS beta2+44(FP), Z1
	VBROADCASTSS omb1+48(FP), Z2
	VBROADCASTSS omb2+52(FP), Z3
	VBROADCASTSS eps+56(FP), Z4
	VBROADCASTSS corr+60(FP), Z5

adam5_blk16:
	CMPQ DX, $16
	JLT  adam5_tail
	VMOVUPS (R11), Z7          // g
	VMOVUPS (R9), Z8           // m
	VMULPS  Z8, Z0, Z8
	VMULPS  Z7, Z2, Z9
	VADDPS  Z9, Z8, Z8         // m'
	VMOVUPS Z8, (R9)
	VMOVUPS (R10), Z10         // v
	VMULPS  Z10, Z1, Z10
	VMULPS  Z7, Z3, Z11
	VMULPS  Z7, Z11, Z11
	VADDPS  Z11, Z10, Z10      // v'
	VMOVUPS Z10, (R10)
	VSQRTPS Z10, Z11
	VADDPS  Z4, Z11, Z11
	VMULPS  Z8, Z5, Z12
	VDIVPS  Z11, Z12, Z12
	VMOVUPS (R8), Z13
	VSUBPS  Z12, Z13, Z13
	VMOVUPS Z13, (R8)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $16, DX
	JMP  adam5_blk16

adam5_tail:
	TESTQ DX, DX
	JE    adam5_done
	TAILMASK
	VMOVUPS.Z (R11), K1, Z7
	VMOVUPS.Z (R9), K1, Z8
	VMULPS  Z8, Z0, Z8
	VMULPS  Z7, Z2, Z9
	VADDPS  Z9, Z8, Z8
	VMOVUPS Z8, K1, (R9)
	VMOVUPS.Z (R10), K1, Z10
	VMULPS  Z10, Z1, Z10
	VMULPS  Z7, Z3, Z11
	VMULPS  Z7, Z11, Z11
	VADDPS  Z11, Z10, Z10
	VMOVUPS Z10, K1, (R10)
	VSQRTPS Z10, Z11
	VADDPS  Z4, Z11, Z11
	VMULPS  Z8, Z5, Z12
	VDIVPS  Z11, Z12, Z12
	VMOVUPS.Z (R8), K1, Z13
	VSUBPS  Z12, Z13, Z13
	VMOVUPS Z13, K1, (R8)

adam5_done:
	VZEROUPPER
	RET

// func dotBF16AVX512Asm(a, b *bf16.BF16, n int64) float32
TEXT ·dotBF16AVX512Asm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), DX
	VXORPS Z0, Z0, Z0

bfboth5_blk16:
	CMPQ DX, $16
	JLT  bfboth5_tail
	VPMOVZXWD (SI), Z4
	VPSLLD $16, Z4, Z4
	VPMOVZXWD (DI), Z5
	VPSLLD $16, Z5, Z5
	VFMADD231PS Z5, Z4, Z0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $16, DX
	JMP  bfboth5_blk16

bfboth5_tail:
	TESTQ DX, DX
	JE    bfboth5_reduce
	TAILMASK
	VPMOVZXWD.Z (SI), K1, Z4
	VPSLLD $16, Z4, Z4
	VPMOVZXWD.Z (DI), K1, Z5
	VPSLLD $16, Z5, Z5
	VFMADD231PS Z5, Z4, Z0

bfboth5_reduce:
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func axpyBF16AVX512Asm(alpha float32, x *bf16.BF16, y *float32, n int64)
TEXT ·axpyBF16AVX512Asm(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Z0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), DX

bfaxpy5_blk16:
	CMPQ DX, $16
	JLT  bfaxpy5_tail
	VPMOVZXWD (SI), Z1
	VPSLLD $16, Z1, Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  bfaxpy5_blk16

bfaxpy5_tail:
	TESTQ DX, DX
	JE    bfaxpy5_done
	TAILMASK
	VPMOVZXWD.Z (SI), K1, Z1
	VPSLLD $16, Z1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (DI), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (DI)

bfaxpy5_done:
	VZEROUPPER
	RET

// func packBF16AVX512Asm(dst *bf16.BF16, src *float32, n int64)
// Requires AVX512-BF16: VCVTNEPS2BF16 converts 16 float32 to 16 bfloat16
// with round-to-nearest-even (subnormal inputs flush to zero — documented
// divergence from the software converter).
TEXT ·packBF16AVX512Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX

pack5_blk16:
	CMPQ DX, $16
	JLT  pack5_tail
	VMOVUPS (SI), Z0
	VCVTNEPS2BF16_Z0_Y1
	VMOVDQU Y1, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $16, DX
	JMP  pack5_blk16

pack5_tail:
	TESTQ DX, DX
	JE    pack5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z0
	VCVTNEPS2BF16_Z0_Y1
	VMOVDQU16 Y1, K1, (DI)

pack5_done:
	VZEROUPPER
	RET

// func roundBF16AVX512Asm(x *float32, n int64)
// Rounds float32 values through bfloat16 in place: convert down with
// VCVTNEPS2BF16, expand back by zero-extend + shift.
TEXT ·roundBF16AVX512Asm(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), DX

round5_blk16:
	CMPQ DX, $16
	JLT  round5_tail
	VMOVUPS (SI), Z0
	VCVTNEPS2BF16_Z0_Y1
	VPMOVZXWD Y1, Z2
	VPSLLD $16, Z2, Z2
	VMOVUPS Z2, (SI)
	ADDQ $64, SI
	SUBQ $16, DX
	JMP  round5_blk16

round5_tail:
	TESTQ DX, DX
	JE    round5_done
	TAILMASK
	VMOVUPS.Z (SI), K1, Z0
	VCVTNEPS2BF16_Z0_Y1
	VPMOVZXWD Y1, Z2
	VPSLLD $16, Z2, Z2
	VMOVUPS Z2, K1, (SI)

round5_done:
	VZEROUPPER
	RET
