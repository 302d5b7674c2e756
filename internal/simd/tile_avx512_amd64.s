//go:build amd64

#include "textflag.h"
#include "walk_amd64.h"

// AVX-512 tiled walks: one call per (index list, tile of up to four dense
// operands). Where the walks of walk_avx512_amd64.s reuse one dense operand
// across a list, the exact output pass scores a block of rows against every
// sample of a batch, so here each listed vector is loaded once and used for
// every sample of the tile (see walk.go and DESIGN.md "One exact walk").
//
// The id and length checks, the return value and the slice-header addressing
// are those of walk_avx512_amd64.s: each id is compared unsigned with the
// vector count and its header's length with n before the vector is touched,
// the walk stops at the first offender and returns its position, and a clean
// walk returns nids. The samples arrive as the slice-header arrays of the
// tile (24 bytes per header); BX holds their count, 1 to 4, and every use of
// sample 1, 2 or 3 is guarded by it.

// tailmask: K1 = (1 << DX) - 1 for DX in [0,15]; clobbers AX, CX.
#define TAILMASK \
	MOVL $1, AX \
	MOVQ DX, CX \
	SHLL CX, AX \
	DECL AX     \
	KMOVW AX, K1

// Sixteen columns of one sample: the row's columns R against the sample's
// at off(H)(CX), into A.
#define DMBB5_FMA4(off, H, A0, A1, A2, A3) \
	VFMADD231PS off+0(H)(CX*1), Z16, A0   \
	VFMADD231PS off+64(H)(CX*1), Z17, A1  \
	VFMADD231PS off+128(H)(CX*1), Z18, A2 \
	VFMADD231PS off+192(H)(CX*1), Z19, A3

// dotAVX512Asm's reduction of one sample's four accumulators down to the
// four partial sums of an xmm register, operand for operand.
#define DMBB5_TREE(A0, A1, A2, A3, YLO, YHI, XLO, XHI) \
	VADDPS A1, A0, A0 \
	VADDPS A3, A2, A2 \
	VADDPS A2, A0, A0 \
	VEXTRACTF64X4 $1, A0, YHI \
	VADDPS YHI, YLO, YLO \
	VEXTRACTF128 $1, YLO, XHI \
	VADDPS XHI, XLO, XLO

// func dotManyBiasBatchAVX512Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64
//
// outs[s][k] = rows[ids[k]]·hs[s] + bias[ids[k]] for s < ns <= 4: a 1 row ×
// 4 samples register tile. The row's current 64 columns sit in Z16-Z19,
// loaded once for the tile; sample s owns accumulators Z(4s)-Z(4s+3), which
// are dotAVX512Asm's four fed in its order (64-column groups, 16-column
// blocks into the first accumulator, one K1-masked block) from activations
// read as memory operands. Each sample's accumulators go through that
// routine's reduction tree down to four partial sums; its last two levels —
// VHADDPS of a register with itself, twice — are then taken for the four
// samples at once by three VHADDPS over register pairs, which add the same
// pairs in the same order, and the bias is added to the four logits as one
// broadcast. Every logit is therefore bit-identical to the per-row call.
//
// R8 ids cursor, R9 ids left, R10 byte offset of slot k in every output,
// R11 rows, R12-R15 the samples' activations, BX samples, SI row, CX byte
// offset of the current column, DX columns left.
TEXT ·dotManyBiasBatchAVX512Asm(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R11
	MOVQ ids+24(FP), R8
	MOVQ nids+32(FP), R9
	MOVQ ns+48(FP), BX
	MOVQ n+56(FP), DX
	ANDQ $15, DX
	TAILMASK
	XORQ R10, R10
	MOVQ hs+40(FP), AX
	MOVQ 0(AX), R12
	CMPQ BX, $2
	JLT  dmbb5_row
	MOVQ 24(AX), R13
	CMPQ BX, $3
	JLT  dmbb5_row
	MOVQ 48(AX), R14
	CMPQ BX, $4
	JLT  dmbb5_row
	MOVQ 72(AX), R15

dmbb5_row:
	TESTQ R9, R9
	JE    dmbb5_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+56(FP), DX
	ROWPTR(R11, DX, SI, dmbb5_done)
	CMPQ  R9, $1
	JE    dmbb5_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCH4(AX)

dmbb5_dot:
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	VXORPS Z4, Z4, Z4
	VXORPS Z5, Z5, Z5
	VXORPS Z6, Z6, Z6
	VXORPS Z7, Z7, Z7
	VXORPS Z8, Z8, Z8
	VXORPS Z9, Z9, Z9
	VXORPS Z10, Z10, Z10
	VXORPS Z11, Z11, Z11
	VXORPS Z12, Z12, Z12
	VXORPS Z13, Z13, Z13
	VXORPS Z14, Z14, Z14
	VXORPS Z15, Z15, Z15
	XORQ CX, CX

dmbb5_grp64:
	CMPQ DX, $64
	JLT  dmbb5_blk16
	VMOVUPS 0(SI)(CX*1), Z16
	VMOVUPS 64(SI)(CX*1), Z17
	VMOVUPS 128(SI)(CX*1), Z18
	VMOVUPS 192(SI)(CX*1), Z19
	DMBB5_FMA4(0, R12, Z0, Z1, Z2, Z3)
	CMPQ BX, $2
	JLT  dmbb5_grp64next
	DMBB5_FMA4(0, R13, Z4, Z5, Z6, Z7)
	CMPQ BX, $3
	JLT  dmbb5_grp64next
	DMBB5_FMA4(0, R14, Z8, Z9, Z10, Z11)
	CMPQ BX, $4
	JLT  dmbb5_grp64next
	DMBB5_FMA4(0, R15, Z12, Z13, Z14, Z15)

dmbb5_grp64next:
	ADDQ $256, CX
	SUBQ $64, DX
	JMP  dmbb5_grp64

dmbb5_blk16:
	CMPQ DX, $16
	JLT  dmbb5_tail
	VMOVUPS (SI)(CX*1), Z16
	VFMADD231PS (R12)(CX*1), Z16, Z0
	CMPQ BX, $2
	JLT  dmbb5_blk16next
	VFMADD231PS (R13)(CX*1), Z16, Z4
	CMPQ BX, $3
	JLT  dmbb5_blk16next
	VFMADD231PS (R14)(CX*1), Z16, Z8
	CMPQ BX, $4
	JLT  dmbb5_blk16next
	VFMADD231PS (R15)(CX*1), Z16, Z12

dmbb5_blk16next:
	ADDQ $64, CX
	SUBQ $16, DX
	JMP  dmbb5_blk16

dmbb5_tail:
	TESTQ DX, DX
	JE    dmbb5_reduce
	VMOVUPS.Z (SI)(CX*1), K1, Z16
	VMOVUPS.Z (R12)(CX*1), K1, Z17
	VFMADD231PS Z17, Z16, Z0
	CMPQ BX, $2
	JLT  dmbb5_reduce
	VMOVUPS.Z (R13)(CX*1), K1, Z17
	VFMADD231PS Z17, Z16, Z4
	CMPQ BX, $3
	JLT  dmbb5_reduce
	VMOVUPS.Z (R14)(CX*1), K1, Z17
	VFMADD231PS Z17, Z16, Z8
	CMPQ BX, $4
	JLT  dmbb5_reduce
	VMOVUPS.Z (R15)(CX*1), K1, Z17
	VFMADD231PS Z17, Z16, Z12

dmbb5_reduce:
	DMBB5_TREE(Z0, Z1, Z2, Z3, Y0, Y1, X0, X1)
	DMBB5_TREE(Z4, Z5, Z6, Z7, Y4, Y5, X4, X5)
	DMBB5_TREE(Z8, Z9, Z10, Z11, Y8, Y9, X8, X9)
	DMBB5_TREE(Z12, Z13, Z14, Z15, Y12, Y13, X12, X13)
	VHADDPS X4, X0, X0
	VHADDPS X12, X8, X8
	VHADDPS X8, X0, X0
	MOVL (R8), AX
	MOVQ bias+16(FP), DX
	VBROADCASTSS (DX)(AX*4), X1
	VADDPS X1, X0, X0
	MOVQ outs+64(FP), DX
	MOVQ 0(DX), AX
	VMOVSS X0, (AX)(R10*1)
	CMPQ BX, $2
	JLT  dmbb5_next
	MOVQ 24(DX), AX
	VEXTRACTPS $1, X0, (AX)(R10*1)
	CMPQ BX, $3
	JLT  dmbb5_next
	MOVQ 48(DX), AX
	VEXTRACTPS $2, X0, (AX)(R10*1)
	CMPQ BX, $4
	JLT  dmbb5_next
	MOVQ 72(DX), AX
	VEXTRACTPS $3, X0, (AX)(R10*1)

dmbb5_next:
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmbb5_row

dmbb5_done:
	VZEROUPPER
	MOVQ nids+32(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET

// The first four 64-byte blocks of one sample's quantized activation, each
// under its block's byte mask (all ones inside the row, zero past it — a
// fully masked load touches no memory).
#define DMQ5_ACT(hdr, A0, A1, A2, A3) \
	MOVQ hdr(AX), DX \
	VMOVDQU8.Z 0(DX), K1, A0   \
	VMOVDQU8.Z 64(DX), K2, A1  \
	VMOVDQU8.Z 128(DX), K3, A2 \
	VMOVDQU8.Z 192(DX), K4, A3

// One resident block: the row's bytes loaded once under the block's mask,
// then multiplied into each sample's accumulator.
#define DMQ5_BLOCK(off, K, A0, A1, A2, A3, next) \
	VMOVDQU8.Z off(SI), K, Z4 \
	VPDPBUSD Z4, A0, Z0 \
	CMPQ BX, $2 \
	JLT  next \
	VPDPBUSD Z4, A1, Z1 \
	CMPQ BX, $3 \
	JLT  next \
	VPDPBUSD Z4, A2, Z2 \
	CMPQ BX, $4 \
	JLT  next \
	VPDPBUSD Z4, A3, Z3 \
next:

// One block past the resident four of sample s: its activation bytes come
// from memory. AX the activations' header array, CX byte offset, K6 the
// block's mask.
#define DMQ5_MEM(hdr, ACC) \
	MOVQ hdr(AX), AX \
	VMOVDQU8.Z (AX)(CX*1), K6, Z5 \
	VPDPBUSD Z4, Z5, ACC

// func dotManyU8S8VNNIAsm(rows *[]int8, nrows int64, ids *int32, nids int64, qas *[]uint8, ns, n int64, masks *[5]uint64, accs *[]int32) int64
//
// accs[s][k] = Σ qas[s][i]·rows[ids[k]][i] for s < ns <= 4. The first 256
// bytes of each sample's activation sit in Z16-Z31 (sample s in
// Z(16+4s)-Z(19+4s), one register per 64-byte block); a row block is loaded
// once, under the byte mask of its position so that nothing past the row is
// read, and VPDPBUSD adds its products into one accumulator per sample,
// Z0-Z3. Rows longer than 256 bytes take the remaining blocks' activations
// from memory. The four accumulators are reduced together: two rounds of
// 128-bit-lane shuffles leave one lane of partial sums per sample, two
// in-lane rounds finish them. Integer addition is exact in any order, so
// the sums are DotU8S8's whatever the tier.
//
// masks[0..3] are the byte masks of blocks 0-3, masks[4] the last block's
// when there are more. R8 ids cursor, R9 ids left, R10 byte offset of slot
// k in every accumulator list, R11 rows, R12-R15 the samples' accumulator
// lists, BX samples, DI 64-byte blocks per row, SI row.
TEXT ·dotManyU8S8VNNIAsm(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R11
	MOVQ ids+16(FP), R8
	MOVQ nids+24(FP), R9
	MOVQ ns+40(FP), BX
	MOVQ n+48(FP), DI
	ADDQ $63, DI
	SHRQ $6, DI
	MOVQ masks+56(FP), AX
	KMOVQ 0(AX), K1
	KMOVQ 8(AX), K2
	KMOVQ 16(AX), K3
	KMOVQ 24(AX), K4
	KMOVQ 32(AX), K5
	XORQ R10, R10
	MOVQ qas+32(FP), AX
	MOVQ accs+64(FP), CX
	DMQ5_ACT(0, Z16, Z17, Z18, Z19)
	MOVQ 0(CX), R12
	CMPQ BX, $2
	JLT  dmq5_row
	DMQ5_ACT(24, Z20, Z21, Z22, Z23)
	MOVQ 24(CX), R13
	CMPQ BX, $3
	JLT  dmq5_row
	DMQ5_ACT(48, Z24, Z25, Z26, Z27)
	MOVQ 48(CX), R14
	CMPQ BX, $4
	JLT  dmq5_row
	DMQ5_ACT(72, Z28, Z29, Z30, Z31)
	MOVQ 72(CX), R15

dmq5_row:
	TESTQ R9, R9
	JE    dmq5_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq5_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+48(FP), DX
	ROWPTR(R11, DX, SI, dmq5_done)
	CMPQ  R9, $1
	JE    dmq5_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq5_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)

dmq5_dot:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	CMPQ DI, $1
	JLT  dmq5_reduce
	DMQ5_BLOCK(0, K1, Z16, Z20, Z24, Z28, dmq5_blk1)
	CMPQ DI, $2
	JLT  dmq5_reduce
	DMQ5_BLOCK(64, K2, Z17, Z21, Z25, Z29, dmq5_blk2)
	CMPQ DI, $3
	JLT  dmq5_reduce
	DMQ5_BLOCK(128, K3, Z18, Z22, Z26, Z30, dmq5_blk3)
	CMPQ DI, $4
	JLT  dmq5_reduce
	DMQ5_BLOCK(192, K4, Z19, Z23, Z27, Z31, dmq5_blk4)
	MOVQ DI, DX
	SUBQ $4, DX
	JLE  dmq5_reduce
	MOVQ $256, CX
	KXNORQ K6, K6, K6

dmq5_mem:
	CMPQ DX, $1
	JNE  dmq5_memblk
	KMOVQ K5, K6

dmq5_memblk:
	VMOVDQU8.Z (SI)(CX*1), K6, Z4
	MOVQ qas+32(FP), AX
	DMQ5_MEM(0, Z0)
	CMPQ BX, $2
	JLT  dmq5_memnext
	MOVQ qas+32(FP), AX
	DMQ5_MEM(24, Z1)
	CMPQ BX, $3
	JLT  dmq5_memnext
	MOVQ qas+32(FP), AX
	DMQ5_MEM(48, Z2)
	CMPQ BX, $4
	JLT  dmq5_memnext
	MOVQ qas+32(FP), AX
	DMQ5_MEM(72, Z3)

dmq5_memnext:
	ADDQ $64, CX
	DECQ DX
	JNZ  dmq5_mem

dmq5_reduce:
	// 128-bit lanes, lowest first: Z4 = a0+a2 a1+a3 b0+b2 b1+b3 of Z0 = a,
	// Z1 = b; Z6 the same of Z2 = c, Z3 = d; then Z0 = Σa Σb Σc Σd lanes.
	VSHUFI64X2 $0x44, Z1, Z0, Z4
	VSHUFI64X2 $0xEE, Z1, Z0, Z5
	VPADDD Z5, Z4, Z4
	VSHUFI64X2 $0x44, Z3, Z2, Z6
	VSHUFI64X2 $0xEE, Z3, Z2, Z7
	VPADDD Z7, Z6, Z6
	VSHUFI64X2 $0x88, Z6, Z4, Z0
	VSHUFI64X2 $0xDD, Z6, Z4, Z1
	VPADDD Z1, Z0, Z0
	VPSHUFD $0x4E, Z0, Z1
	VPADDD Z1, Z0, Z0
	VPSHUFD $0xB1, Z0, Z1
	VPADDD Z1, Z0, Z0
	VMOVD X0, (R12)(R10*1)
	CMPQ BX, $2
	JLT  dmq5_next
	VEXTRACTI32X4 $1, Z0, X1
	VMOVD X1, (R13)(R10*1)
	CMPQ BX, $3
	JLT  dmq5_next
	VEXTRACTI32X4 $2, Z0, X1
	VMOVD X1, (R14)(R10*1)
	CMPQ BX, $4
	JLT  dmq5_next
	VEXTRACTI32X4 $3, Z0, X1
	VMOVD X1, (R15)(R10*1)

dmq5_next:
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmq5_row

dmq5_done:
	VZEROUPPER
	MOVQ nids+24(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET
