//go:build amd64

#include "textflag.h"

// AVX2+FMA kernel tier: 8 float32 lanes per ymm register.
//
// Contract shared by every function in this file: n > 0 and n%8 == 0. The
// Go wrappers (dispatch_amd64.go) run remainder elements with scalar code
// matching the portable tier bit for bit. Elementwise kernels (axpy, adam,
// scale, add) use separate VMULPS/VADDPS — not FMA — so each lane performs
// the same two-rounding arithmetic as the Go reference and stays
// bit-identical to it; FMA is reserved for the dot/sum reductions where
// accumulation order already differs (see DESIGN.md "Native kernel
// backend").

// func dotAVX2Asm(a, b *float32, n int64) float32
TEXT ·dotAVX2Asm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot2_blk32:
	CMPQ DX, $32
	JLT  dot2_blk8
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, DX
	JMP  dot2_blk32

dot2_blk8:
	TESTQ DX, DX
	JE    dot2_reduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JMP  dot2_blk8

dot2_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func axpyAVX2Asm(alpha float32, x, y *float32, n int64)
// y[i] += alpha * x[i], two roundings per lane (mul then add).
TEXT ·axpyAVX2Asm(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), DX

axpy2_blk8:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JNE  axpy2_blk8
	VZEROUPPER
	RET

// func axpyTwoAVX2Asm(gz float32, h, grad, w, dh *float32, n int64)
// grad[i] += gz*h[i]; dh[i] += gz*w[i] — one fused walk.
TEXT ·axpyTwoAVX2Asm(SB), NOSPLIT, $0-48
	VBROADCASTSS gz+0(FP), Y0
	MOVQ h+8(FP), SI
	MOVQ grad+16(FP), DI
	MOVQ w+24(FP), R8
	MOVQ dh+32(FP), R9
	MOVQ n+40(FP), DX

axpytwo2_blk8:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	VMOVUPS (R8), Y2
	VMULPS  Y2, Y0, Y2
	VADDPS  (R9), Y2, Y2
	VMOVUPS Y2, (R9)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, DX
	JNE  axpytwo2_blk8
	VZEROUPPER
	RET

// func scaleAVX2Asm(alpha float32, x *float32, n int64)
TEXT ·scaleAVX2Asm(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX

scale2_blk8:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS Y1, (SI)
	ADDQ $32, SI
	SUBQ $8, DX
	JNE  scale2_blk8
	VZEROUPPER
	RET

// func addAVX2Asm(x, y *float32, n int64)
// y[i] += x[i]
TEXT ·addAVX2Asm(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), DX

add2_blk8:
	VMOVUPS (SI), Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JNE  add2_blk8
	VZEROUPPER
	RET

// func maxAVX2Asm(x *float32, n int64) float32
// Lane-wise running maxima, horizontal resolve at the end. NaN handling
// follows VMAXPS, which returns its second (newer) operand when either is NaN:
// a lane that meets a NaN forgets what it held and keeps the NaN only until
// its next element. So with NaNs in x the result is NaN or the maximum of
// some of the elements, depending on where the NaNs sit; the portable tier
// returns NaN exactly when x[0] is one.
// The label head does pass NaNs: raw logits, NaN under poisoned weights.
// Its outputs are NaN on every tier anyway, because exp(NaN - m) makes its
// softmax sum NaN whatever m is (network.TestLabelHeadMatchesDefinition).
TEXT ·maxAVX2Asm(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), DX
	VMOVUPS (SI), Y0
	ADDQ $32, SI
	SUBQ $8, DX

max2_blk8:
	TESTQ DX, DX
	JE    max2_reduce
	VMOVUPS (SI), Y1
	VMAXPS Y1, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, DX
	JMP  max2_blk8

max2_reduce:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VSHUFPS $0xEE, X0, X0, X1
	VMAXPS X1, X0, X0
	VMOVSHDUP X0, X1
	VMAXSS X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+16(FP)
	RET

// func gatherArgMaxAVX2Asm(vals *float32, idx *int32, stride, n, slots int64, win *uint8)
// DWTA winners for the first n bins (n > 0, n%8 == 0) of a slot-major index
// map with stride bins per slot: win[b] = lowest s in [0, slots) maximizing
// vals[idx[s*stride+b]]. Requires 1 <= slots <= 256 and every idx entry a
// valid position in vals (unchecked gathers). One lane per bin: slot 0 is
// the running best, then per slot a gather, VCMPPS $0x1E (_CMP_GT_OQ:
// strict, false on NaN — Go's float >) and two VBLENDVPS carry value and
// slot number, so ties keep the earlier slot. The 8 dword winners narrow to
// bytes with two saturating packs (values are < 256).
TEXT ·gatherArgMaxAVX2Asm(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), SI
	MOVQ idx+8(FP), DI
	MOVQ stride+16(FP), R10
	MOVQ n+24(FP), DX
	MOVQ slots+32(FP), R8
	MOVQ win+40(FP), R9
	SHLQ $2, R10            // bytes between two slots of one bin
	VPCMPEQD Y6, Y6, Y6
	VPSRLD $31, Y6, Y6      // 1 in every lane

gam2_block:
	VMOVDQU (DI), Y1
	VPCMPEQD Y5, Y5, Y5     // a gather consumes its mask
	VXORPS Y0, Y0, Y0
	VGATHERDPS Y5, (SI)(Y1*4), Y0 // running best = slot 0
	VPXOR Y2, Y2, Y2        // winning slot
	VPXOR Y3, Y3, Y3        // slot being scanned
	MOVQ DI, R11
	MOVQ R8, R12

gam2_slot:
	DECQ R12
	JE   gam2_store
	ADDQ R10, R11
	VPADDD Y6, Y3, Y3
	VMOVDQU (R11), Y1
	VPCMPEQD Y5, Y5, Y5
	VXORPS Y4, Y4, Y4       // no false dependency on the last gather
	VGATHERDPS Y5, (SI)(Y1*4), Y4
	VCMPPS $0x1E, Y0, Y4, Y7 // Y4 > Y0
	VBLENDVPS Y7, Y4, Y0, Y0
	VBLENDVPS Y7, Y3, Y2, Y2
	JMP  gam2_slot

gam2_store:
	VEXTRACTI128 $1, Y2, X8
	VPACKUSDW X8, X2, X2
	VPACKUSWB X2, X2, X2
	VMOVQ X2, (R9)
	ADDQ $32, DI
	ADDQ $8, R9
	SUBQ $8, DX
	JNE  gam2_block
	VZEROUPPER
	RET

// func adamAVX2Asm(w, m, v, grad *float32, n int64, beta1, beta2, omb1, omb2, eps, corr float32)
// One fused ADAM pass (§4.3.1): m' = beta1*m + omb1*g; v' = beta2*v +
// (omb2*g)*g; w -= (corr*m') / (sqrt(v') + eps).
// Operation order and rounding match the scalar reference exactly.
TEXT ·adamAVX2Asm(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), R8
	MOVQ m+8(FP), R9
	MOVQ v+16(FP), R10
	MOVQ grad+24(FP), R11
	MOVQ n+32(FP), DX
	VBROADCASTSS beta1+40(FP), Y0
	VBROADCASTSS beta2+44(FP), Y1
	VBROADCASTSS omb1+48(FP), Y2
	VBROADCASTSS omb2+52(FP), Y3
	VBROADCASTSS eps+56(FP), Y4
	VBROADCASTSS corr+60(FP), Y5

adam2_blk8:
	VMOVUPS (R11), Y7          // g
	VMOVUPS (R9), Y8           // m
	VMULPS  Y8, Y0, Y8         // beta1*m
	VMULPS  Y7, Y2, Y9         // omb1*g
	VADDPS  Y9, Y8, Y8         // m'
	VMOVUPS Y8, (R9)
	VMOVUPS (R10), Y10         // v
	VMULPS  Y10, Y1, Y10       // beta2*v
	VMULPS  Y7, Y3, Y11        // omb2*g
	VMULPS  Y7, Y11, Y11       // (omb2*g)*g
	VADDPS  Y11, Y10, Y10      // v'
	VMOVUPS Y10, (R10)
	VSQRTPS Y10, Y11           // sqrt(v')
	VADDPS  Y4, Y11, Y11       // + eps
	VMULPS  Y8, Y5, Y12        // corr*m'
	VDIVPS  Y11, Y12, Y12      // / (sqrt+eps)
	VMOVUPS (R8), Y13
	VSUBPS  Y12, Y13, Y13      // w - update
	VMOVUPS Y13, (R8)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, DX
	JNE  adam2_blk8
	VZEROUPPER
	RET

// func widenBF16AVX2Asm(dst *float32, src *bf16.BF16, n int64)
// dst[i] = float32(src[i]): zero-extend each 16-bit lane, shift left 16.
TEXT ·widenBF16AVX2Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX

widen2_blk8:
	VPMOVZXWD (SI), Y0
	VPSLLD $16, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JNE  widen2_blk8
	VZEROUPPER
	RET
