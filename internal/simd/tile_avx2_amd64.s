//go:build amd64

#include "textflag.h"
#include "walk_amd64.h"

// AVX2 tiled walks: the tile_avx512_amd64.s routines over ymm registers.
// Sixteen registers carry a narrower tile — 1 row × 2 samples for the float
// dot, whose four accumulators per sample are dotAVX2Asm's — and no resident
// activations for the integer walk, whose four samples' bytes are loaded
// beside each row block. The checks, the return value and the header-array
// arguments are as described there; BX holds the sample count.
//
// As everywhere in the AVX2 tier the float code covers the first n&^7
// columns and the Go wrapper (walk_amd64.go) finishes every row; the integer
// walk finishes its own rows (see dotManyU8S8AVX2Asm).

// dotAVX2Asm's reduction of one sample's four accumulators down to the four
// partial sums of an xmm register, operand for operand.
#define DMBB2_TREE(A0, A1, A2, A3, XLO, XHI) \
	VADDPS A1, A0, A0 \
	VADDPS A3, A2, A2 \
	VADDPS A2, A0, A0 \
	VEXTRACTF128 $1, A0, XHI \
	VADDPS XHI, XLO, XLO

// func dotManyBiasBatchAVX2Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64
//
// outs[s][k] = rows[ids[k]][:n&^7]·hs[s][:n&^7] (+ bias[ids[k]] when bias !=
// nil, as in dotManyBiasAVX2Asm) for s < ns <= 2. The row's current 32
// columns sit in Y8-Y11, loaded once for both samples; sample 0 accumulates
// in Y0-Y3 and sample 1 in Y4-Y7, each in dotAVX2Asm's order, and after that
// routine's tree per sample its two VHADDPS levels are taken for both
// samples at once (the same pairs, so the same bits).
//
// R8 ids cursor, R9 ids left, R10 byte offset of slot k in both outputs,
// R11 rows, R12/R13 the samples' activations, BX samples, SI row, CX byte
// offset of the current column, DX columns left.
TEXT ·dotManyBiasBatchAVX2Asm(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R11
	MOVQ ids+24(FP), R8
	MOVQ nids+32(FP), R9
	MOVQ ns+48(FP), BX
	XORQ R10, R10
	MOVQ hs+40(FP), AX
	MOVQ 0(AX), R12
	CMPQ BX, $2
	JLT  dmbb2_row
	MOVQ 24(AX), R13

dmbb2_row:
	TESTQ R9, R9
	JE    dmbb2_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb2_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+56(FP), DX
	ROWPTR(R11, DX, SI, dmbb2_done)
	CMPQ  R9, $1
	JE    dmbb2_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb2_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCH4(AX)

dmbb2_dot:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	ANDQ $-8, DX
	XORQ CX, CX

dmbb2_grp32:
	CMPQ DX, $32
	JLT  dmbb2_blk8
	VMOVUPS 0(SI)(CX*1), Y8
	VMOVUPS 32(SI)(CX*1), Y9
	VMOVUPS 64(SI)(CX*1), Y10
	VMOVUPS 96(SI)(CX*1), Y11
	VFMADD231PS 0(R12)(CX*1), Y8, Y0
	VFMADD231PS 32(R12)(CX*1), Y9, Y1
	VFMADD231PS 64(R12)(CX*1), Y10, Y2
	VFMADD231PS 96(R12)(CX*1), Y11, Y3
	CMPQ BX, $2
	JLT  dmbb2_grp32next
	VFMADD231PS 0(R13)(CX*1), Y8, Y4
	VFMADD231PS 32(R13)(CX*1), Y9, Y5
	VFMADD231PS 64(R13)(CX*1), Y10, Y6
	VFMADD231PS 96(R13)(CX*1), Y11, Y7

dmbb2_grp32next:
	ADDQ $128, CX
	SUBQ $32, DX
	JMP  dmbb2_grp32

dmbb2_blk8:
	TESTQ DX, DX
	JE    dmbb2_reduce
	VMOVUPS (SI)(CX*1), Y8
	VFMADD231PS (R12)(CX*1), Y8, Y0
	CMPQ BX, $2
	JLT  dmbb2_blk8next
	VFMADD231PS (R13)(CX*1), Y8, Y4

dmbb2_blk8next:
	ADDQ $32, CX
	SUBQ $8, DX
	JMP  dmbb2_blk8

dmbb2_reduce:
	DMBB2_TREE(Y0, Y1, Y2, Y3, X0, X1)
	DMBB2_TREE(Y4, Y5, Y6, Y7, X4, X5)
	VHADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	MOVQ bias+16(FP), DX
	TESTQ DX, DX
	JE    dmbb2_store
	MOVL (R8), AX
	VBROADCASTSS (DX)(AX*4), X1
	VADDPS X1, X0, X0

dmbb2_store:
	MOVQ outs+64(FP), DX
	MOVQ 0(DX), AX
	VMOVSS X0, (AX)(R10*1)
	CMPQ BX, $2
	JLT  dmbb2_next
	MOVQ 24(DX), AX
	VEXTRACTPS $1, X0, (AX)(R10*1)

dmbb2_next:
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmbb2_row

dmbb2_done:
	VZEROUPPER
	MOVQ nids+32(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET

// One sample's share of a row block: its activation bytes at ADDR times the
// row bytes in R. VPMADDUBSW forms sixteen-bit sums of adjacent byte
// products — unsigned activation, signed weight; with activations capped at
// 127 a pair sum is at most 2·127·127, inside its saturation bound — and
// VPMADDWD by a register of ones widens adjacent pairs of those to int32.
#define DMQ2_MAC(ADDR, R, T, ONES, TW, ACC) \
	VMOVDQU ADDR, T      \
	VPMADDUBSW R, T, T   \
	VPMADDWD ONES, T, T  \
	VPADDD TW, ACC, ACC

// func dotManyU8S8AVX2Asm(rows *[]int8, nrows int64, ids *int32, nids int64, qas *[]uint8, ns, n int64, tails *[4][16]uint8, accs *[]int32) int64
//
// accs[s][k] = Σ qas[s][i]·rows[ids[k]][i] for s < ns <= 4 and n >= 16. A row
// block — 32 bytes, then at most one of 16 — is loaded once into Y4 and
// multiplied into one accumulator per sample, Y0-Y3; the four are reduced
// together by three VPHADDD and a lane fold. There are no byte-masked loads
// here, so the last n%16 bytes are reached by loading the row's last 16
// bytes — inside the row, overlapping the block before — against tails[s],
// the sample's last n%16 activations behind 16-n%16 zeros, which cancel the
// overlap. Exact integer sums, so the result is DotU8S8's.
//
// R8 ids cursor, R9 ids left, R10 byte offset of slot k in every
// accumulator list, R11 rows, R12-R15 the samples' activations, BX samples,
// SI row, CX byte offset, DX bytes left, Y7 sixteen words of 1.
TEXT ·dotManyU8S8AVX2Asm(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R11
	MOVQ ids+16(FP), R8
	MOVQ nids+24(FP), R9
	MOVQ ns+40(FP), BX
	VPCMPEQW Y7, Y7, Y7
	VPSRLW $15, Y7, Y7
	XORQ R10, R10
	MOVQ qas+32(FP), AX
	MOVQ 0(AX), R12
	CMPQ BX, $2
	JLT  dmq2_row
	MOVQ 24(AX), R13
	CMPQ BX, $3
	JLT  dmq2_row
	MOVQ 48(AX), R14
	CMPQ BX, $4
	JLT  dmq2_row
	MOVQ 72(AX), R15

dmq2_row:
	TESTQ R9, R9
	JE    dmq2_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq2_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+48(FP), DX
	ROWPTR(R11, DX, SI, dmq2_done)
	CMPQ  R9, $1
	JE    dmq2_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq2_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)

dmq2_dot:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	ANDQ $-16, DX
	XORQ CX, CX

dmq2_blk32:
	CMPQ DX, $32
	JLT  dmq2_blk16
	VMOVDQU (SI)(CX*1), Y4
	DMQ2_MAC((R12)(CX*1), Y4, Y5, Y7, Y5, Y0)
	CMPQ BX, $2
	JLT  dmq2_blk32next
	DMQ2_MAC((R13)(CX*1), Y4, Y5, Y7, Y5, Y1)
	CMPQ BX, $3
	JLT  dmq2_blk32next
	DMQ2_MAC((R14)(CX*1), Y4, Y5, Y7, Y5, Y2)
	CMPQ BX, $4
	JLT  dmq2_blk32next
	DMQ2_MAC((R15)(CX*1), Y4, Y5, Y7, Y5, Y3)

dmq2_blk32next:
	ADDQ $32, CX
	SUBQ $32, DX
	JMP  dmq2_blk32

dmq2_blk16:
	TESTQ DX, DX
	JE    dmq2_tail
	VMOVDQU (SI)(CX*1), X4
	DMQ2_MAC((R12)(CX*1), X4, X5, X7, Y5, Y0)
	CMPQ BX, $2
	JLT  dmq2_tail
	DMQ2_MAC((R13)(CX*1), X4, X5, X7, Y5, Y1)
	CMPQ BX, $3
	JLT  dmq2_tail
	DMQ2_MAC((R14)(CX*1), X4, X5, X7, Y5, Y2)
	CMPQ BX, $4
	JLT  dmq2_tail
	DMQ2_MAC((R15)(CX*1), X4, X5, X7, Y5, Y3)

dmq2_tail:
	MOVQ  n+48(FP), DX
	TESTQ $15, DX
	JE    dmq2_reduce
	MOVQ  tails+56(FP), AX
	VMOVDQU -16(SI)(DX*1), X4
	DMQ2_MAC(0(AX), X4, X5, X7, Y5, Y0)
	CMPQ BX, $2
	JLT  dmq2_reduce
	DMQ2_MAC(16(AX), X4, X5, X7, Y5, Y1)
	CMPQ BX, $3
	JLT  dmq2_reduce
	DMQ2_MAC(32(AX), X4, X5, X7, Y5, Y2)
	CMPQ BX, $4
	JLT  dmq2_reduce
	DMQ2_MAC(48(AX), X4, X5, X7, Y5, Y3)

dmq2_reduce:
	// Per 128-bit lane: Y0 = a01 a23 b01 b23, Y2 = c01 c23 d01 d23, then
	// Y0 = a b c d; the two lanes fold into X0 = Σa Σb Σc Σd.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	MOVQ accs+64(FP), DX
	MOVQ 0(DX), AX
	VMOVD X0, (AX)(R10*1)
	CMPQ BX, $2
	JLT  dmq2_next
	MOVQ 24(DX), AX
	VPEXTRD $1, X0, (AX)(R10*1)
	CMPQ BX, $3
	JLT  dmq2_next
	MOVQ 48(DX), AX
	VPEXTRD $2, X0, (AX)(R10*1)
	CMPQ BX, $4
	JLT  dmq2_next
	MOVQ 72(DX), AX
	VPEXTRD $3, X0, (AX)(R10*1)

dmq2_next:
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmq2_row

dmq2_done:
	VZEROUPPER
	MOVQ nids+24(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET
