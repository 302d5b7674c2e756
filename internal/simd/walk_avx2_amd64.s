//go:build amd64

#include "textflag.h"
#include "walk_amd64.h"

// AVX2 active-set walks: the walk_avx512_amd64.s routines over 8-lane ymm
// registers. Sixteen registers hold less of the dense operand — a "group"
// is four ymm (32 columns): two groups of h beside the dot's accumulators,
// three groups of dh / y / x for the axpy shapes, and in the backward walk
// h stays a memory operand so all twelve spare registers can carry dh, the
// operand that would otherwise be loaded and stored per row.
//
// As everywhere in the AVX2 tier the vector code covers the first n&^7
// columns; the Go wrappers (walk_amd64.go) run the last n%8 columns of every
// listed vector with the scalar expressions of the per-row wrappers. The id
// and length checks, the return value and the arithmetic are as described in
// walk_avx512_amd64.s.

#define LOAD4(off, base, A, B, C, D) \
	VMOVUPS off+0(base), A  \
	VMOVUPS off+32(base), B \
	VMOVUPS off+64(base), C \
	VMOVUPS off+96(base), D

#define STORE4(off, base, A, B, C, D) \
	VMOVUPS A, off+0(base)  \
	VMOVUPS B, off+32(base) \
	VMOVUPS C, off+64(base) \
	VMOVUPS D, off+96(base)

// func dotManyBiasAVX2Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, h *float32, n int64, out *float32) int64
//
// out[k] = rows[ids[k]][:n&^7]·h[:n&^7] (+ bias[ids[k]] when bias != nil;
// the wrapper passes nil when n%8 != 0 and adds the scalar tail and the
// bias itself, in dotAVX2's order). Accumulators, block order and reduction
// are dotAVX2Asm's.
//
// R8 ids cursor, R9 ids left, R10 out cursor, R11 rows, R12 nrows, R13 n,
// CX resident groups, BX first non-resident column of h.
TEXT ·dotManyBiasAVX2Asm(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), R11
	MOVQ nrows+8(FP), R12
	MOVQ ids+24(FP), R8
	MOVQ nids+32(FP), R9
	MOVQ h+40(FP), BX
	MOVQ n+48(FP), R13
	MOVQ out+56(FP), R10
	MOVQ R13, CX
	SHRQ $5, CX
	CMPQ CX, $2
	JLE  dmb2_load
	MOVQ $2, CX

dmb2_load:
	CMPQ CX, $1
	JLT  dmb2_loaded
	LOAD4(0, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $2
	JLT  dmb2_loaded
	LOAD4(128, BX, Y12, Y13, Y14, Y15)

dmb2_loaded:
	MOVQ CX, AX
	SHLQ $7, AX
	ADDQ AX, BX

dmb2_row:
	TESTQ R9, R9
	JE    dmb2_done
	MOVL  (R8), AX
	CMPQ  AX, R12
	JAE   dmb2_done
	LEAQ  (AX)(AX*2), AX
	ROWPTR(R11, R13, SI, dmb2_done)
	CMPQ  R9, $1
	JE    dmb2_dot
	MOVL  4(R8), DX
	CMPQ  DX, R12
	JAE   dmb2_dot
	LEAQ  (DX)(DX*2), DX
	MOVQ  (R11)(DX*8), DX
	PREFETCH4(DX)

dmb2_dot:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $1
	JLT  dmb2_mem
	VFMADD231PS 0(SI), Y8, Y0
	VFMADD231PS 32(SI), Y9, Y1
	VFMADD231PS 64(SI), Y10, Y2
	VFMADD231PS 96(SI), Y11, Y3
	CMPQ CX, $2
	JLT  dmb2_mem
	VFMADD231PS 128(SI), Y12, Y0
	VFMADD231PS 160(SI), Y13, Y1
	VFMADD231PS 192(SI), Y14, Y2
	VFMADD231PS 224(SI), Y15, Y3

dmb2_mem:
	MOVQ CX, AX
	SHLQ $7, AX
	ADDQ AX, SI
	MOVQ R13, DX
	ANDQ $-8, DX
	SHRQ $2, AX
	SUBQ AX, DX
	MOVQ BX, DI

dmb2_blk32:
	CMPQ DX, $32
	JLT  dmb2_blk8
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
	JMP  dmb2_blk32

dmb2_blk8:
	TESTQ DX, DX
	JE    dmb2_reduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, DX
	JMP  dmb2_blk8

dmb2_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	MOVQ bias+16(FP), DX
	TESTQ DX, DX
	JE    dmb2_store
	MOVL (R8), AX
	VADDSS (DX)(AX*4), X0, X0

dmb2_store:
	VMOVSS X0, (R10)
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JMP  dmb2_row

dmb2_done:
	VZEROUPPER
	MOVQ nids+32(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+64(FP)
	RET

// One 8-column block of a resident backward group: AX = h, DI = grad row,
// SI = w row, Y0 = gz, D the resident dh block.
#define ATM2_BLOCK(off, T, U, D) \
	VMULPS  off(AX), Y0, T \
	VADDPS  off(DI), T, T  \
	VMOVUPS T, off(DI)     \
	VMULPS  off(SI), Y0, U \
	VADDPS  D, U, D

#define ATM2_GROUP(off, D0, D1, D2, D3) \
	ATM2_BLOCK(off+0, Y1, Y2, D0)  \
	ATM2_BLOCK(off+32, Y3, Y1, D1) \
	ATM2_BLOCK(off+64, Y2, Y3, D2) \
	ATM2_BLOCK(off+96, Y1, Y2, D3)

// func axpyTwoManyAVX2Asm(gz *float32, ids *int32, nids int64, h *float32, n int64, grad, w *[]float32, nrows int64, dh *float32) int64
//
// For each k, over the first n&^7 columns: grad[ids[k]] += gz[k]*h;
// dh += gz[k]*w[ids[k]]. The first min(n/32, 3) groups of dh accumulate in
// Y4-Y15 across the whole list; h is a memory operand.
//
// R8 ids, R9 nids, R10 k, R11 grad headers, R12 w headers, R13 byte length
// of the vector part, CX resident groups, DI grad row, SI w row, AX h,
// BX dh, DX byte offset.
TEXT ·axpyTwoManyAVX2Asm(SB), NOSPLIT, $0-80
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ grad+40(FP), R11
	MOVQ w+48(FP), R12
	MOVQ n+32(FP), R13
	MOVQ dh+64(FP), BX
	MOVQ R13, CX
	SHRQ $5, CX
	CMPQ CX, $3
	JLE  atm2_load
	MOVQ $3, CX

atm2_load:
	ANDQ $-8, R13
	SHLQ $2, R13
	CMPQ CX, $1
	JLT  atm2_loaded
	LOAD4(0, BX, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  atm2_loaded
	LOAD4(128, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  atm2_loaded
	LOAD4(256, BX, Y12, Y13, Y14, Y15)

atm2_loaded:
	XORQ R10, R10

atm2_row:
	CMPQ R10, R9
	JAE  atm2_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, nrows+56(FP)
	JAE  atm2_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+32(FP), DX
	ROWPTR(R11, DX, DI, atm2_done)
	ROWPTR(R12, DX, SI, atm2_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  atm2_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, nrows+56(FP)
	JAE  atm2_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), AX
	MOVQ (R12)(DX*8), DX
	PREFETCH4(AX)
	PREFETCH4(DX)

atm2_axpy:
	MOVQ gz+0(FP), AX
	VBROADCASTSS (AX)(R10*4), Y0
	MOVQ h+24(FP), AX
	CMPQ CX, $1
	JLT  atm2_mem
	ATM2_GROUP(0, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  atm2_mem
	ATM2_GROUP(128, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  atm2_mem
	ATM2_GROUP(256, Y12, Y13, Y14, Y15)

atm2_mem:
	MOVQ CX, DX
	SHLQ $7, DX

atm2_blk8:
	CMPQ DX, R13
	JAE  atm2_next
	VMOVUPS (AX)(DX*1), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (DI)(DX*1), Y1, Y1
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS (SI)(DX*1), Y2
	VMULPS  Y2, Y0, Y2
	VADDPS  (BX)(DX*1), Y2, Y2
	VMOVUPS Y2, (BX)(DX*1)
	ADDQ $32, DX
	JMP  atm2_blk8

atm2_next:
	INCQ R10
	JMP  atm2_row

atm2_done:
	CMPQ CX, $1
	JLT  atm2_ret
	STORE4(0, BX, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  atm2_ret
	STORE4(128, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  atm2_ret
	STORE4(256, BX, Y12, Y13, Y14, Y15)

atm2_ret:
	VZEROUPPER
	MOVQ R10, ret+72(FP)
	RET

#define GA2_GROUP(off, D0, D1, D2, D3) \
	VMULPS off+0(SI), Y0, Y1  \
	VMULPS off+32(SI), Y0, Y2 \
	VMULPS off+64(SI), Y0, Y3 \
	VADDPS D0, Y1, D0 \
	VMULPS off+96(SI), Y0, Y1 \
	VADDPS D1, Y2, D1 \
	VADDPS D2, Y3, D2 \
	VADDPS D3, Y1, D3

// func gatherAxpyAVX2Asm(alpha *float32, ids *int32, nids int64, rows *[]float32, nrows int64, y *float32, n int64) int64
//
// y += sum over k of alpha[k]*rows[ids[k]] over the first n&^7 columns. The
// first min(n/32, 3) groups of y accumulate in Y4-Y15.
//
// R8 ids, R9 nids, R10 k, R11 rows, R12 nrows, R13 byte length of the
// vector part, CX resident groups, DI alpha, BX y, SI row, DX byte offset.
TEXT ·gatherAxpyAVX2Asm(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), DI
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ rows+24(FP), R11
	MOVQ nrows+32(FP), R12
	MOVQ y+40(FP), BX
	MOVQ n+48(FP), R13
	MOVQ R13, CX
	SHRQ $5, CX
	CMPQ CX, $3
	JLE  ga2_load
	MOVQ $3, CX

ga2_load:
	ANDQ $-8, R13
	SHLQ $2, R13
	CMPQ CX, $1
	JLT  ga2_loaded
	LOAD4(0, BX, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  ga2_loaded
	LOAD4(128, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  ga2_loaded
	LOAD4(256, BX, Y12, Y13, Y14, Y15)

ga2_loaded:
	XORQ R10, R10

ga2_row:
	CMPQ R10, R9
	JAE  ga2_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, R12
	JAE  ga2_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+48(FP), DX
	ROWPTR(R11, DX, SI, ga2_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  ga2_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, R12
	JAE  ga2_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), DX
	PREFETCH4(DX)

ga2_axpy:
	VBROADCASTSS (DI)(R10*4), Y0
	CMPQ CX, $1
	JLT  ga2_mem
	GA2_GROUP(0, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  ga2_mem
	GA2_GROUP(128, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  ga2_mem
	GA2_GROUP(256, Y12, Y13, Y14, Y15)

ga2_mem:
	MOVQ CX, DX
	SHLQ $7, DX

ga2_blk8:
	CMPQ DX, R13
	JAE  ga2_next
	VMOVUPS (SI)(DX*1), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (BX)(DX*1), Y1, Y1
	VMOVUPS Y1, (BX)(DX*1)
	ADDQ $32, DX
	JMP  ga2_blk8

ga2_next:
	INCQ R10
	JMP  ga2_row

ga2_done:
	CMPQ CX, $1
	JLT  ga2_ret
	STORE4(0, BX, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  ga2_ret
	STORE4(128, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  ga2_ret
	STORE4(256, BX, Y12, Y13, Y14, Y15)

ga2_ret:
	VZEROUPPER
	MOVQ R10, ret+56(FP)
	RET

#define SA2_BLOCK(off, T, X) \
	VMULPS  X, Y0, T      \
	VADDPS  off(SI), T, T \
	VMOVUPS T, off(SI)

#define SA2_GROUP(off, X0, X1, X2, X3) \
	SA2_BLOCK(off+0, Y1, X0)  \
	SA2_BLOCK(off+32, Y2, X1) \
	SA2_BLOCK(off+64, Y3, X2) \
	SA2_BLOCK(off+96, Y1, X3)

// func scatterAxpyAVX2Asm(alpha *float32, ids *int32, nids int64, x *float32, n int64, rows *[]float32, nrows int64) int64
//
// rows[ids[k]] += alpha[k]*x over the first n&^7 columns. The first
// min(n/32, 3) groups of x sit in Y4-Y15.
//
// Registers as in gatherAxpyAVX2Asm, with BX = x.
TEXT ·scatterAxpyAVX2Asm(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), DI
	MOVQ ids+8(FP), R8
	MOVQ nids+16(FP), R9
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), R13
	MOVQ rows+40(FP), R11
	MOVQ nrows+48(FP), R12
	MOVQ R13, CX
	SHRQ $5, CX
	CMPQ CX, $3
	JLE  sa2_load
	MOVQ $3, CX

sa2_load:
	ANDQ $-8, R13
	SHLQ $2, R13
	CMPQ CX, $1
	JLT  sa2_loaded
	LOAD4(0, BX, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  sa2_loaded
	LOAD4(128, BX, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  sa2_loaded
	LOAD4(256, BX, Y12, Y13, Y14, Y15)

sa2_loaded:
	XORQ R10, R10

sa2_row:
	CMPQ R10, R9
	JAE  sa2_done
	MOVL (R8)(R10*4), AX
	CMPQ AX, R12
	JAE  sa2_done
	LEAQ (AX)(AX*2), AX
	MOVQ n+32(FP), DX
	ROWPTR(R11, DX, SI, sa2_done)
	LEAQ 1(R10), DX
	CMPQ DX, R9
	JAE  sa2_axpy
	MOVL (R8)(DX*4), DX
	CMPQ DX, R12
	JAE  sa2_axpy
	LEAQ (DX)(DX*2), DX
	MOVQ (R11)(DX*8), DX
	PREFETCH4(DX)

sa2_axpy:
	VBROADCASTSS (DI)(R10*4), Y0
	CMPQ CX, $1
	JLT  sa2_mem
	SA2_GROUP(0, Y4, Y5, Y6, Y7)
	CMPQ CX, $2
	JLT  sa2_mem
	SA2_GROUP(128, Y8, Y9, Y10, Y11)
	CMPQ CX, $3
	JLT  sa2_mem
	SA2_GROUP(256, Y12, Y13, Y14, Y15)

sa2_mem:
	MOVQ CX, DX
	SHLQ $7, DX

sa2_blk8:
	CMPQ DX, R13
	JAE  sa2_next
	VMOVUPS (BX)(DX*1), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (SI)(DX*1), Y1, Y1
	VMOVUPS Y1, (SI)(DX*1)
	ADDQ $32, DX
	JMP  sa2_blk8

sa2_next:
	INCQ R10
	JMP  sa2_row

sa2_done:
	VZEROUPPER
	MOVQ R10, ret+56(FP)
	RET
