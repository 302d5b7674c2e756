//go:build amd64

#include "textflag.h"
#include "walk_amd64.h"

// AVX-512 active-set walks: one call per index list, the dense operand held
// in zmm registers for the whole list (see walk.go and DESIGN.md "Active-set
// walks: one call per sample").
//
// Shared shape of the four routines:
//
//   - The dense operand's leading columns live in registers as "groups" of
//     four zmm (64 columns). Columns past the resident groups go through
//     memory operands exactly as in the per-row kernels: 16-column blocks,
//     then one K1-masked block for the last n%16 columns. K1 is derived once.
//   - Each id is compared (unsigned, so negative ids fail too) with the
//     vector count, and the length word of its slice header with n, before
//     the vector is touched. The walk stops at the first offender and
//     returns its position in the list; a clean walk returns nids. Registers
//     holding accumulated state are written back either way.
//   - Vectors are reached through the slice-header array (24 bytes per
//     header: pointer, length, capacity), so contiguous and scattered
//     placements take the same path. The first lines of the next listed
//     vector are prefetched while the current one streams.
//   - Arithmetic is the per-row kernels': VMULPS then VADDPS for the axpy
//     shapes (two roundings, bit-identical to the Go reference), FMA into
//     dotAVX512Asm's accumulators in dotAVX512Asm's order for the dot.

// tailmask: K1 = (1 << DX) - 1 for DX in [0,15]; clobbers AX, CX.
#define TAILMASK \
	MOVL $1, AX \
	MOVQ DX, CX \
	SHLL CX, AX \
	DECL AX     \
	KMOVW AX, K1

#define LOAD4(off, base, A, B, C, D) \
	VMOVUPS off+0(base), A   \
	VMOVUPS off+64(base), B  \
	VMOVUPS off+128(base), C \
	VMOVUPS off+192(base), D

#define STORE4(off, base, A, B, C, D) \
	VMOVUPS A, off+0(base)   \
	VMOVUPS B, off+64(base)  \
	VMOVUPS C, off+128(base) \
	VMOVUPS D, off+192(base)

// func dotManyBiasAVX512Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, h *float32, n int64, out *float32) int64
//
// out[k] = rows[ids[k]]·h + bias[ids[k]]. h's first min(n/64, 4) groups sit
// in Z16-Z31; each row reproduces dotAVX512Asm exactly — group g feeds
// accumulators Z0-Z3 like that routine's g-th 64-column iteration, the
// memory-operand remainder is its code verbatim, and the reduction tree is
// the same — so every logit is bit-identical to the per-row call.
//
// R8 ids cursor, R9 ids left, R10 out cursor, R11 rows, R12 nrows, R13 n,
// CX resident groups, BX first non-resident column of h.
TEXT ·dotManyBiasAVX512Asm(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), R11
	MOVQ nrows+8(FP), R12
	MOVQ ids+24(FP), R8
	MOVQ nids+32(FP), R9
	MOVQ h+40(FP), BX
	MOVQ n+48(FP), R13
	MOVQ out+56(FP), R10
	MOVQ R13, DX
	ANDQ $15, DX
	TAILMASK
	MOVQ R13, CX
	SHRQ $6, CX
	CMPQ CX, $4
	JLE  dmb5_load
	MOVQ $4, CX

dmb5_load:
	CMPQ CX, $1
	JLT  dmb5_loaded
	LOAD4(0, BX, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  dmb5_loaded
	LOAD4(256, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  dmb5_loaded
	LOAD4(512, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  dmb5_loaded
	LOAD4(768, BX, Z28, Z29, Z30, Z31)

dmb5_loaded:
	MOVQ CX, AX
	SHLQ $8, AX
	ADDQ AX, BX

dmb5_row:
	TESTQ R9, R9
	JE    dmb5_done
	MOVL  (R8), AX
	CMPQ  AX, R12
	JAE   dmb5_done
	LEAQ  (AX)(AX*2), AX
	ROWPTR(R11, R13, SI, dmb5_done)
	CMPQ  R9, $1
	JE    dmb5_dot
	MOVL  4(R8), DX
	CMPQ  DX, R12
	JAE   dmb5_dot
	LEAQ  (DX)(DX*2), DX
	MOVQ  (R11)(DX*8), DX
	PREFETCH4(DX)

dmb5_dot:
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	CMPQ CX, $1
	JLT  dmb5_mem
	VFMADD231PS 0(SI), Z16, Z0
	VFMADD231PS 64(SI), Z17, Z1
	VFMADD231PS 128(SI), Z18, Z2
	VFMADD231PS 192(SI), Z19, Z3
	CMPQ CX, $2
	JLT  dmb5_mem
	VFMADD231PS 256(SI), Z20, Z0
	VFMADD231PS 320(SI), Z21, Z1
	VFMADD231PS 384(SI), Z22, Z2
	VFMADD231PS 448(SI), Z23, Z3
	CMPQ CX, $3
	JLT  dmb5_mem
	VFMADD231PS 512(SI), Z24, Z0
	VFMADD231PS 576(SI), Z25, Z1
	VFMADD231PS 640(SI), Z26, Z2
	VFMADD231PS 704(SI), Z27, Z3
	CMPQ CX, $4
	JLT  dmb5_mem
	VFMADD231PS 768(SI), Z28, Z0
	VFMADD231PS 832(SI), Z29, Z1
	VFMADD231PS 896(SI), Z30, Z2
	VFMADD231PS 960(SI), Z31, Z3

dmb5_mem:
	MOVQ CX, AX
	SHLQ $8, AX
	ADDQ AX, SI
	MOVQ CX, DX
	SHLQ $6, DX
	NEGQ DX
	ADDQ R13, DX
	MOVQ BX, DI

dmb5_blk64:
	CMPQ DX, $64
	JLT  dmb5_blk16
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
	JMP  dmb5_blk64

dmb5_blk16:
	CMPQ DX, $16
	JLT  dmb5_tail
	VMOVUPS (SI), Z4
	VFMADD231PS (DI), Z4, Z0
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  dmb5_blk16

dmb5_tail:
	TESTQ DX, DX
	JE    dmb5_reduce
	VMOVUPS.Z (SI), K1, Z4
	VMOVUPS.Z (DI), K1, Z5
	VFMADD231PS Z5, Z4, Z0

dmb5_reduce:
	VADDPS Z1, Z0, Z0
	VADDPS Z3, Z2, Z2
	VADDPS Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	MOVL (R8), AX
	MOVQ bias+16(FP), DX
	VADDSS (DX)(AX*4), X0, X0
	VMOVSS X0, (R10)
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmb5_row

dmb5_done:
	VZEROUPPER
	MOVQ nids+32(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+64(FP)
	RET

// One resident group of the backward walk: grad[off..off+64) += gz*h and
// dh += gz*w over the same columns. Z0 = gz, DI = grad row, SI = w row.
#define ATM5_GROUP(off, H0, H1, H2, H3, D0, D1, D2, D3) \
	VMULPS H0, Z0, Z1 \
	VMULPS H1, Z0, Z2 \
	VMULPS H2, Z0, Z3 \
	VMULPS H3, Z0, Z4 \
	VADDPS off+0(DI), Z1, Z1   \
	VADDPS off+64(DI), Z2, Z2  \
	VADDPS off+128(DI), Z3, Z3 \
	VADDPS off+192(DI), Z4, Z4 \
	STORE4(off, DI, Z1, Z2, Z3, Z4) \
	VMULPS off+0(SI), Z0, Z5   \
	VMULPS off+64(SI), Z0, Z6  \
	VMULPS off+128(SI), Z0, Z7 \
	VMULPS off+192(SI), Z0, Z1 \
	VADDPS D0, Z5, D0 \
	VADDPS D1, Z6, D1 \
	VADDPS D2, Z7, D2 \
	VADDPS D3, Z1, D3

// func axpyTwoManyAVX512Asm(gz *float32, ids *int32, nids int64, h *float32, n int64, grad, w *[]float32, nrows int64, dh *float32) int64
//
// For each k: grad[ids[k]] += gz[k]*h; dh += gz[k]*w[ids[k]]. The first
// min(n/64, 3) groups of h sit in Z8-Z19 and the same columns of dh
// accumulate in Z20-Z31 across the whole list; per row only w is loaded and
// grad loaded and stored.
//
// R8 ids, R9 nids, R10 k, R11 grad headers, R12 w headers, R13 byte offset
// of the masked tail, CX resident groups, DI grad row, SI w row; in the
// memory-operand remainder AX = h, BX = dh, DX = byte offset.
TEXT ·axpyTwoManyAVX512Asm(SB), NOSPLIT, $0-80
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ grad+40(FP), R11
	MOVQ w+48(FP), R12
	MOVQ n+32(FP), R13
	MOVQ R13, DX
	ANDQ $15, DX
	TAILMASK
	MOVQ R13, CX
	SHRQ $6, CX
	CMPQ CX, $3
	JLE  atm5_load
	MOVQ $3, CX

atm5_load:
	ANDQ $-16, R13
	SHLQ $2, R13
	MOVQ h+24(FP), AX
	MOVQ dh+64(FP), BX
	CMPQ CX, $1
	JLT  atm5_loaded
	LOAD4(0, AX, Z8, Z9, Z10, Z11)
	LOAD4(0, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $2
	JLT  atm5_loaded
	LOAD4(256, AX, Z12, Z13, Z14, Z15)
	LOAD4(256, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $3
	JLT  atm5_loaded
	LOAD4(512, AX, Z16, Z17, Z18, Z19)
	LOAD4(512, BX, Z28, Z29, Z30, Z31)

atm5_loaded:
	XORQ R10, R10

atm5_row:
	CMPQ R10, R9
	JAE  atm5_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, nrows+56(FP)
	JAE  atm5_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+32(FP), BX
	ROWPTR(R11, BX, DI, atm5_done)
	ROWPTR(R12, BX, SI, atm5_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  atm5_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, nrows+56(FP)
	JAE  atm5_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), AX
	MOVQ (R12)(DX*8), DX
	PREFETCH4(AX)
	PREFETCH4(DX)

atm5_axpy:
	MOVQ gz+0(FP), AX
	VBROADCASTSS (AX)(R10*4), Z0
	CMPQ CX, $1
	JLT  atm5_mem
	ATM5_GROUP(0, Z8, Z9, Z10, Z11, Z20, Z21, Z22, Z23)
	CMPQ CX, $2
	JLT  atm5_mem
	ATM5_GROUP(256, Z12, Z13, Z14, Z15, Z24, Z25, Z26, Z27)
	CMPQ CX, $3
	JLT  atm5_mem
	ATM5_GROUP(512, Z16, Z17, Z18, Z19, Z28, Z29, Z30, Z31)

atm5_mem:
	MOVQ CX, DX
	SHLQ $8, DX
	MOVQ h+24(FP), AX
	MOVQ dh+64(FP), BX

atm5_blk16:
	CMPQ DX, R13
	JAE  atm5_tail
	VMOVUPS (AX)(DX*1), Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (DI)(DX*1), Z1, Z1
	VMOVUPS Z1, (DI)(DX*1)
	VMOVUPS (SI)(DX*1), Z2
	VMULPS  Z2, Z0, Z2
	VADDPS  (BX)(DX*1), Z2, Z2
	VMOVUPS Z2, (BX)(DX*1)
	ADDQ $64, DX
	JMP  atm5_blk16

atm5_tail:
	TESTQ $15, n+32(FP)
	JE    atm5_next
	VMOVUPS.Z (AX)(DX*1), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (DI)(DX*1), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (DI)(DX*1)
	VMOVUPS.Z (SI)(DX*1), K1, Z3
	VMULPS  Z3, Z0, Z3
	VMOVUPS.Z (BX)(DX*1), K1, Z4
	VADDPS  Z4, Z3, Z3
	VMOVUPS Z3, K1, (BX)(DX*1)

atm5_next:
	INCQ R10
	JMP  atm5_row

atm5_done:
	MOVQ dh+64(FP), BX
	CMPQ CX, $1
	JLT  atm5_ret
	STORE4(0, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $2
	JLT  atm5_ret
	STORE4(256, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $3
	JLT  atm5_ret
	STORE4(512, BX, Z28, Z29, Z30, Z31)

atm5_ret:
	VZEROUPPER
	MOVQ R10, ret+72(FP)
	RET

// One resident group of the gather: y += alpha*row. Z0 = alpha, SI = row.
#define GA5_GROUP(off, Y0, Y1, Y2, Y3) \
	VMULPS off+0(SI), Z0, Z1   \
	VMULPS off+64(SI), Z0, Z2  \
	VMULPS off+128(SI), Z0, Z3 \
	VMULPS off+192(SI), Z0, Z4 \
	VADDPS Y0, Z1, Y0 \
	VADDPS Y1, Z2, Y1 \
	VADDPS Y2, Z3, Y2 \
	VADDPS Y3, Z4, Y3

// func gatherAxpyAVX512Asm(alpha *float32, ids *int32, nids int64, rows *[]float32, nrows int64, y *float32, n int64) int64
//
// y += sum over k of alpha[k]*rows[ids[k]], in list order. The first
// min(n/64, 4) groups of y accumulate in Z16-Z31.
//
// R8 ids, R9 nids, R10 k, R11 rows, R12 nrows, R13 byte offset of the
// masked tail, CX resident groups, DI alpha, BX y, SI row, DX byte offset.
TEXT ·gatherAxpyAVX512Asm(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), DI
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ rows+24(FP), R11
	MOVQ nrows+32(FP), R12
	MOVQ y+40(FP), BX
	MOVQ n+48(FP), R13
	MOVQ R13, DX
	ANDQ $15, DX
	TAILMASK
	MOVQ R13, CX
	SHRQ $6, CX
	CMPQ CX, $4
	JLE  ga5_load
	MOVQ $4, CX

ga5_load:
	ANDQ $-16, R13
	SHLQ $2, R13
	CMPQ CX, $1
	JLT  ga5_loaded
	LOAD4(0, BX, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  ga5_loaded
	LOAD4(256, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  ga5_loaded
	LOAD4(512, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  ga5_loaded
	LOAD4(768, BX, Z28, Z29, Z30, Z31)

ga5_loaded:
	XORQ R10, R10

ga5_row:
	CMPQ R10, R9
	JAE  ga5_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, R12
	JAE  ga5_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+48(FP), DX
	ROWPTR(R11, DX, SI, ga5_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  ga5_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, R12
	JAE  ga5_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), DX
	PREFETCH4(DX)

ga5_axpy:
	VBROADCASTSS (DI)(R10*4), Z0
	CMPQ CX, $1
	JLT  ga5_mem
	GA5_GROUP(0, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  ga5_mem
	GA5_GROUP(256, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  ga5_mem
	GA5_GROUP(512, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  ga5_mem
	GA5_GROUP(768, Z28, Z29, Z30, Z31)

ga5_mem:
	MOVQ CX, DX
	SHLQ $8, DX

ga5_blk16:
	CMPQ DX, R13
	JAE  ga5_tail
	VMOVUPS (SI)(DX*1), Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (BX)(DX*1), Z1, Z1
	VMOVUPS Z1, (BX)(DX*1)
	ADDQ $64, DX
	JMP  ga5_blk16

ga5_tail:
	TESTQ $15, n+48(FP)
	JE    ga5_next
	VMOVUPS.Z (SI)(DX*1), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (BX)(DX*1), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (BX)(DX*1)

ga5_next:
	INCQ R10
	JMP  ga5_row

ga5_done:
	CMPQ CX, $1
	JLT  ga5_ret
	STORE4(0, BX, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  ga5_ret
	STORE4(256, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  ga5_ret
	STORE4(512, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  ga5_ret
	STORE4(768, BX, Z28, Z29, Z30, Z31)

ga5_ret:
	VZEROUPPER
	MOVQ R10, ret+56(FP)
	RET

// One resident group of the scatter: row += alpha*x. Z0 = alpha, SI = row.
#define SA5_GROUP(off, X0, X1, X2, X3) \
	VMULPS X0, Z0, Z1 \
	VMULPS X1, Z0, Z2 \
	VMULPS X2, Z0, Z3 \
	VMULPS X3, Z0, Z4 \
	VADDPS off+0(SI), Z1, Z1   \
	VADDPS off+64(SI), Z2, Z2  \
	VADDPS off+128(SI), Z3, Z3 \
	VADDPS off+192(SI), Z4, Z4 \
	STORE4(off, SI, Z1, Z2, Z3, Z4)

// func scatterAxpyAVX512Asm(alpha *float32, ids *int32, nids int64, x *float32, n int64, rows *[]float32, nrows int64) int64
//
// rows[ids[k]] += alpha[k]*x for each k, in list order. The first
// min(n/64, 4) groups of x sit in Z16-Z31.
//
// Registers as in gatherAxpyAVX512Asm, with BX = x.
TEXT ·scatterAxpyAVX512Asm(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), DI
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), R13
	MOVQ rows+40(FP), R11
	MOVQ nrows+48(FP), R12
	MOVQ R13, DX
	ANDQ $15, DX
	TAILMASK
	MOVQ R13, CX
	SHRQ $6, CX
	CMPQ CX, $4
	JLE  sa5_load
	MOVQ $4, CX

sa5_load:
	ANDQ $-16, R13
	SHLQ $2, R13
	CMPQ CX, $1
	JLT  sa5_loaded
	LOAD4(0, BX, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  sa5_loaded
	LOAD4(256, BX, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  sa5_loaded
	LOAD4(512, BX, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  sa5_loaded
	LOAD4(768, BX, Z28, Z29, Z30, Z31)

sa5_loaded:
	XORQ R10, R10

sa5_row:
	CMPQ R10, R9
	JAE  sa5_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, R12
	JAE  sa5_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+32(FP), DX
	ROWPTR(R11, DX, SI, sa5_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  sa5_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, R12
	JAE  sa5_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), DX
	PREFETCH4(DX)

sa5_axpy:
	VBROADCASTSS (DI)(R10*4), Z0
	CMPQ CX, $1
	JLT  sa5_mem
	SA5_GROUP(0, Z16, Z17, Z18, Z19)
	CMPQ CX, $2
	JLT  sa5_mem
	SA5_GROUP(256, Z20, Z21, Z22, Z23)
	CMPQ CX, $3
	JLT  sa5_mem
	SA5_GROUP(512, Z24, Z25, Z26, Z27)
	CMPQ CX, $4
	JLT  sa5_mem
	SA5_GROUP(768, Z28, Z29, Z30, Z31)

sa5_mem:
	MOVQ CX, DX
	SHLQ $8, DX

sa5_blk16:
	CMPQ DX, R13
	JAE  sa5_tail
	VMOVUPS (BX)(DX*1), Z1
	VMULPS  Z1, Z0, Z1
	VADDPS  (SI)(DX*1), Z1, Z1
	VMOVUPS Z1, (SI)(DX*1)
	ADDQ $64, DX
	JMP  sa5_blk16

sa5_tail:
	TESTQ $15, n+32(FP)
	JE    sa5_next
	VMOVUPS.Z (BX)(DX*1), K1, Z1
	VMULPS  Z1, Z0, Z1
	VMOVUPS.Z (SI)(DX*1), K1, Z2
	VADDPS  Z2, Z1, Z1
	VMOVUPS Z1, K1, (SI)(DX*1)

sa5_next:
	INCQ R10
	JMP  sa5_row

sa5_done:
	VZEROUPPER
	MOVQ R10, ret+56(FP)
	RET
