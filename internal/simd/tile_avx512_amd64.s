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

// Sixteen columns of the 2 × 4 tile at byte offset off+CX: the two rows'
// block is loaded once (Z28, Z29) and each sample's once (Z30/Z31), and the
// eight products go into accumulators Ars (row r, sample s). The row is the
// multiplier operand and the activation the other, as in dotAVX512Asm.
#define DMBB5_BLOCK(off, A00, A01, A02, A03, A10, A11, A12, A13) \
	VMOVUPS off(SI)(CX*1), Z28    \
	VMOVUPS off(DI)(CX*1), Z29    \
	VMOVUPS off(R12)(CX*1), Z30   \
	VFMADD231PS Z30, Z28, A00     \
	VFMADD231PS Z30, Z29, A10     \
	VMOVUPS off(R13)(CX*1), Z31   \
	VFMADD231PS Z31, Z28, A01     \
	VFMADD231PS Z31, Z29, A11     \
	VMOVUPS off(R14)(CX*1), Z30   \
	VFMADD231PS Z30, Z28, A02     \
	VFMADD231PS Z30, Z29, A12     \
	VMOVUPS off(R15)(CX*1), Z31   \
	VFMADD231PS Z31, Z28, A03     \
	VFMADD231PS Z31, Z29, A13

#define DMBB5_ZERO(A0, A1, A2, A3, A4, A5, A6, A7) \
	VXORPS A0, A0, A0 \
	VXORPS A1, A1, A1 \
	VXORPS A2, A2, A2 \
	VXORPS A3, A3, A3 \
	VXORPS A4, A4, A4 \
	VXORPS A5, A5, A5 \
	VXORPS A6, A6, A6 \
	VXORPS A7, A7, A7

// Pass j of the tile: block j (byte offset off = 64j) of every 64-column
// group, in group order, into eight zeroed accumulators — dotAVX512Asm's
// accumulator j for each of the eight dots. Leaves CX at the first column
// past the groups.
#define DMBB5_PASS(off, A0, A1, A2, A3, A4, A5, A6, A7, loop, end) \
	DMBB5_ZERO(A0, A1, A2, A3, A4, A5, A6, A7)         \
	XORQ CX, CX                                         \
	MOVQ n+56(FP), DX                                   \
	SHRQ $6, DX                                         \
	JEQ  end                                            \
loop:                                                   \
	DMBB5_BLOCK(off, A0, A1, A2, A3, A4, A5, A6, A7)    \
	ADDQ $256, CX                                       \
	DECQ DX                                             \
	JNE  loop                                           \
end:

// The tile's logits to its outputs: sample s's are the low two (MOV =
// VMOVSD) or the low one (MOV = VMOVSS) floats of 128-bit lane s of Z0,
// stored at slot k of the output whose pointer the frame holds at o<s>.
// Absent samples' pointers are sample 0's and their logits are sample 0's,
// so the stores run unconditionally, sample 0's last.
#define DMBB5_STORE(MOV) \
	MOVQ o3-8(SP), AX             \
	VEXTRACTF32X4 $3, Z0, X1      \
	MOV  X1, (AX)(R10*1)          \
	MOVQ o2-16(SP), AX            \
	VEXTRACTF32X4 $2, Z0, X1      \
	MOV  X1, (AX)(R10*1)          \
	MOVQ o1-24(SP), AX            \
	VEXTRACTF32X4 $1, Z0, X1      \
	MOV  X1, (AX)(R10*1)          \
	MOVQ o0-32(SP), AX            \
	MOV  X0, (AX)(R10*1)

// Sample s's activation pointer into H and its output pointer into the
// frame at O; off = 24s, AX and CX the two slice-header arrays.
#define DMBB5_SAMPLE(off, H, O) \
	MOVQ off(AX), H  \
	MOVQ off(CX), DX \
	MOVQ DX, O

// func dotManyBiasBatchAVX512Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64
//
// outs[s][k] = rows[ids[k]]·hs[s] + bias[ids[k]] for s < ns <= 4: a 2 rows
// × 4 samples register tile walked column-block-major. dotAVX512Asm feeds
// four accumulators: A_j takes column block j of every 64-column group, in
// group order, and A_0 then also the 16-column blocks and the K1-masked
// tail. The four sequences are independent, so the tile runs them one after
// another for its eight dots at once — A_0 (groups, blocks, tail) into
// Z0-Z7, A_1 into Z8-Z15, t = A_0 + A_1; A_2 into Z8-Z15, A_3 into Z16-Z23,
// u = A_2 + A_3, p = t + u — each row block and activation block loaded once
// per pass and used for four and two FMAs. Every accumulator sees the same
// FMAs in the same order and p is that routine's (Z0+Z1)+(Z2+Z3).
//
// The eight p are then reduced together, adding at every level the pairs
// the per-row tree adds, with its first operand (the low half, the even
// lane) first, so that even a NaN keeps its payload: VSHUFF32X4
// $0x44/$0xEE + add is 512→256, $0x88/$0xDD + add is 256→128 and leaves
// sample s in 128-bit lane s, VSHUFPS $0x88/$0xDD + add is the first
// VHADDPS, and the same again over the result the second, which leaves row
// 0's and row 1's logit in the low two floats of each lane. The bias pair
// is added as one broadcast and each sample's two logits stored as 8 bytes.
// Every logit is therefore bit-identical to the per-row call.
//
// Absent samples (ns < 4) read sample 0's activation, so their logits are
// sample 0's, and store them to sample 0's output. A tile of one row — the
// last of an odd list, or the first of a pair whose second id is an
// offender — runs with row 1 = row 0 and stores row 0's logits only; the
// next iteration then stops at the offender. While a pair is scored, the
// first four lines of the next pair's rows are prefetched.
//
// R8 ids cursor, R9 ids left, R10 byte offset of slot k in every output,
// R11 rows, R12-R15 the samples' activations, SI row 0, DI row 1, BX rows
// in the tile (1 or 2), CX byte offset of the current column, DX groups or
// columns left; the frame holds the four output pointers.
TEXT ·dotManyBiasBatchAVX512Asm(SB), NOSPLIT, $32-80
	MOVQ rows+0(FP), R11
	MOVQ ids+24(FP), R8
	MOVQ nids+32(FP), R9
	MOVQ ns+48(FP), BX
	MOVQ n+56(FP), DX
	ANDQ $15, DX
	TAILMASK
	XORQ R10, R10
	MOVQ hs+40(FP), AX
	MOVQ outs+64(FP), CX
	MOVQ 0(AX), R12
	MOVQ 0(CX), DX
	MOVQ DX, o0-32(SP)
	MOVQ R12, R13
	MOVQ DX, o1-24(SP)
	MOVQ R12, R14
	MOVQ DX, o2-16(SP)
	MOVQ R12, R15
	MOVQ DX, o3-8(SP)
	CMPQ BX, $2
	JLT  dmbb5_tile
	DMBB5_SAMPLE(24, R13, o1-24(SP))
	CMPQ BX, $3
	JLT  dmbb5_tile
	DMBB5_SAMPLE(48, R14, o2-16(SP))
	CMPQ BX, $4
	JLT  dmbb5_tile
	DMBB5_SAMPLE(72, R15, o3-8(SP))

dmbb5_tile:
	TESTQ R9, R9
	JE    dmbb5_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+56(FP), DX
	ROWPTR(R11, DX, SI, dmbb5_done)
	MOVQ  SI, DI
	MOVQ  $1, BX
	CMPQ  R9, $1
	JE    dmbb5_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_dot
	LEAQ  (AX)(AX*2), AX
	ROWPTR(R11, DX, DI, dmbb5_dot)
	MOVQ  $2, BX
	CMPQ  R9, $3
	JLT   dmbb5_dot
	MOVL  8(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCH4(AX)
	CMPQ  R9, $4
	JLT   dmbb5_dot
	MOVL  12(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmbb5_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCH4(AX)

dmbb5_dot:
	DMBB5_PASS(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, dmbb5_g0, dmbb5_g0end)
	MOVQ n+56(FP), DX
	ANDQ $63, DX

dmbb5_blk16:
	CMPQ DX, $16
	JLT  dmbb5_tail
	DMBB5_BLOCK(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ADDQ $64, CX
	SUBQ $16, DX
	JMP  dmbb5_blk16

dmbb5_tail:
	TESTQ DX, DX
	JE    dmbb5_pass1
	VMOVUPS.Z (SI)(CX*1), K1, Z28
	VMOVUPS.Z (DI)(CX*1), K1, Z29
	VMOVUPS.Z (R12)(CX*1), K1, Z30
	VFMADD231PS Z30, Z28, Z0
	VFMADD231PS Z30, Z29, Z4
	VMOVUPS.Z (R13)(CX*1), K1, Z31
	VFMADD231PS Z31, Z28, Z1
	VFMADD231PS Z31, Z29, Z5
	VMOVUPS.Z (R14)(CX*1), K1, Z30
	VFMADD231PS Z30, Z28, Z2
	VFMADD231PS Z30, Z29, Z6
	VMOVUPS.Z (R15)(CX*1), K1, Z31
	VFMADD231PS Z31, Z28, Z3
	VFMADD231PS Z31, Z29, Z7

dmbb5_pass1:
	DMBB5_PASS(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, dmbb5_g1, dmbb5_g1end)
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3
	VADDPS Z12, Z4, Z4
	VADDPS Z13, Z5, Z5
	VADDPS Z14, Z6, Z6
	VADDPS Z15, Z7, Z7
	DMBB5_PASS(128, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, dmbb5_g2, dmbb5_g2end)
	DMBB5_PASS(192, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, dmbb5_g3, dmbb5_g3end)
	VADDPS Z16, Z8, Z8
	VADDPS Z17, Z9, Z9
	VADDPS Z18, Z10, Z10
	VADDPS Z19, Z11, Z11
	VADDPS Z20, Z12, Z12
	VADDPS Z21, Z13, Z13
	VADDPS Z22, Z14, Z14
	VADDPS Z23, Z15, Z15
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3
	VADDPS Z12, Z4, Z4
	VADDPS Z13, Z5, Z5
	VADDPS Z14, Z6, Z6
	VADDPS Z15, Z7, Z7

	// Z(4r+s) is row r's, sample s's p. Lanes i+8 onto i, two dots per
	// register: Z8 = (row 0: sample 0 | sample 1), Z10 = (0: 2 | 3),
	// Z12 = (1: 0 | 1), Z14 = (1: 2 | 3).
	VSHUFF32X4 $0x44, Z1, Z0, Z8
	VSHUFF32X4 $0xEE, Z1, Z0, Z9
	VADDPS     Z9, Z8, Z8
	VSHUFF32X4 $0x44, Z3, Z2, Z10
	VSHUFF32X4 $0xEE, Z3, Z2, Z11
	VADDPS     Z11, Z10, Z10
	VSHUFF32X4 $0x44, Z5, Z4, Z12
	VSHUFF32X4 $0xEE, Z5, Z4, Z13
	VADDPS     Z13, Z12, Z12
	VSHUFF32X4 $0x44, Z7, Z6, Z14
	VSHUFF32X4 $0xEE, Z7, Z6, Z15
	VADDPS     Z15, Z14, Z14

	// Lanes i+4 onto i, sample s in 128-bit lane s: Z16 row 0, Z18 row 1.
	VSHUFF32X4 $0x88, Z10, Z8, Z16
	VSHUFF32X4 $0xDD, Z10, Z8, Z17
	VADDPS     Z17, Z16, Z16
	VSHUFF32X4 $0x88, Z14, Z12, Z18
	VSHUFF32X4 $0xDD, Z14, Z12, Z19
	VADDPS     Z19, Z18, Z18

	// The two VHADDPS levels: (x0+x1, x2+x3) of row 0 then row 1 in each
	// lane, then ((x0+x1)+(x2+x3)) of row 0 then row 1.
	VSHUFPS $0x88, Z18, Z16, Z20
	VSHUFPS $0xDD, Z18, Z16, Z21
	VADDPS  Z21, Z20, Z20
	VSHUFPS $0x88, Z20, Z20, Z21
	VSHUFPS $0xDD, Z20, Z20, Z22
	VADDPS  Z22, Z21, Z0

	MOVQ bias+16(FP), DX
	MOVL (R8), AX
	VMOVSS (DX)(AX*4), X1
	CMPQ BX, $2
	JLT  dmbb5_bias
	MOVL 4(R8), AX

dmbb5_bias:
	VINSERTPS    $0x10, (DX)(AX*4), X1, X1
	VBROADCASTSD X1, Z1
	VADDPS       Z1, Z0, Z0
	CMPQ BX, $2
	JLT  dmbb5_store1
	DMBB5_STORE(VMOVSD)
	JMP  dmbb5_next

dmbb5_store1:
	DMBB5_STORE(VMOVSS)

dmbb5_next:
	LEAQ (R8)(BX*4), R8
	LEAQ (R10)(BX*4), R10
	SUBQ BX, R9
	JMP  dmbb5_tile

dmbb5_done:
	VZEROUPPER
	MOVQ nids+32(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET

// The first four 64-byte blocks of the activation at DX, each under its
// block's byte mask (all ones inside the row, zero past it — a fully masked
// load touches no memory).
#define DMQ5_ACT(A0, A1, A2, A3) \
	VMOVDQU8.Z 0(DX), K1, A0   \
	VMOVDQU8.Z 64(DX), K2, A1  \
	VMOVDQU8.Z 128(DX), K3, A2 \
	VMOVDQU8.Z 192(DX), K4, A3

// One resident block of the 2 × 4 tile: each row's bytes loaded once under
// the block's mask, then multiplied into its four samples' accumulators —
// row 0's into Z0-Z3, row 1's into Z4-Z7.
#define DMQ5_BLOCK(off, K, A0, A1, A2, A3) \
	VMOVDQU8.Z off(SI), K, Z8 \
	VMOVDQU8.Z off(DI), K, Z9 \
	VPDPBUSD Z8, A0, Z0 \
	VPDPBUSD Z9, A0, Z4 \
	VPDPBUSD Z8, A1, Z1 \
	VPDPBUSD Z9, A1, Z5 \
	VPDPBUSD Z8, A2, Z2 \
	VPDPBUSD Z9, A2, Z6 \
	VPDPBUSD Z8, A3, Z3 \
	VPDPBUSD Z9, A3, Z7

// A block past the resident four: sample s's activation bytes at byte
// offset CX from memory, under K6, into both rows' accumulators.
#define DMQ5_MEM(act, R0, R1) \
	MOVQ act, AX \
	VMOVDQU8.Z (AX)(CX*1), K6, Z10 \
	VPDPBUSD Z8, Z10, R0 \
	VPDPBUSD Z9, Z10, R1

// The tile's sums to the accumulator lists: sample s's are the low two
// (MOV = VMOVQ) or the low one (MOV = VMOVD) int32 of 128-bit lane s of Z10,
// stored at slot k of the list R12-R15 point at, sample 0's last.
#define DMQ5_STORE(MOV) \
	VEXTRACTI32X4 $3, Z10, X11 \
	MOV X11, (R15)(R10*1)      \
	VEXTRACTI32X4 $2, Z10, X11 \
	MOV X11, (R14)(R10*1)      \
	VEXTRACTI32X4 $1, Z10, X11 \
	MOV X11, (R13)(R10*1)      \
	MOV X10, (R12)(R10*1)

// func dotManyU8S8VNNIAsm(rows *[]int8, nrows int64, ids *int32, nids int64, qas *[]uint8, ns, n int64, masks *[5]uint64, accs *[]int32) int64
//
// accs[s][k] = Σ qas[s][i]·rows[ids[k]][i] for s < ns <= 4: a 2 rows × 4
// samples register tile. The first 256 bytes of each sample's activation
// sit in Z16-Z31 (sample s in Z(16+4s)-Z(19+4s), one register per 64-byte
// block); a block of each row is loaded once, under the byte mask of its
// position so that nothing past the row is read, and VPDPBUSD adds its
// products into the eight accumulators Z(4r+s), row r, sample s. Rows
// longer than 256 bytes take the remaining blocks' activations from memory.
// The eight accumulators are then reduced together: 512→256 and 256→128
// bit-lane shuffles leave sample s in 128-bit lane s of one register per
// row, and two in-lane rounds over the pair leave row 0's and row 1's sum
// side by side, stored as one 8-byte write per sample. Integer addition is
// exact in any order, so the sums are DotU8S8's whatever the tier.
//
// A partial tile (ns < 4) runs the same body: the absent samples'
// activation and accumulator pointers are sample 0's, so they compute
// sample 0's sums and store them over its own. A tile of one row — the
// last of an odd list, or the first of a pair whose second id is an
// offender — runs with row 1 = row 0 and stores row 0's sums only; the next
// iteration then stops at the offender. While a pair is scored, the first
// lines of the next pair's rows are prefetched.
//
// masks[0..3] are the byte masks of blocks 0-3, masks[4] the last block's
// when there are more. R8 ids cursor, R9 ids left, R10 byte offset of slot
// k in every accumulator list, R11 rows, R12-R15 the samples' accumulator
// lists, SI row 0, DI row 1, BX rows in the tile (1 or 2); the frame holds
// the samples' activation pointers and the 64-byte blocks per row.
TEXT ·dotManyU8S8VNNIAsm(SB), NOSPLIT, $40-80
	MOVQ rows+0(FP), R11
	MOVQ ids+16(FP), R8
	MOVQ nids+24(FP), R9
	MOVQ n+48(FP), DX
	ADDQ $63, DX
	SHRQ $6, DX
	MOVQ DX, nb-8(SP)
	MOVQ masks+56(FP), AX
	KMOVQ 0(AX), K1
	KMOVQ 8(AX), K2
	KMOVQ 16(AX), K3
	KMOVQ 24(AX), K4
	KMOVQ 32(AX), K5
	XORQ R10, R10
	MOVQ ns+40(FP), BX
	MOVQ qas+32(FP), AX
	MOVQ accs+64(FP), CX
	MOVQ 0(AX), DX
	MOVQ DX, a0-40(SP)
	MOVQ DX, a1-32(SP)
	MOVQ DX, a2-24(SP)
	MOVQ DX, a3-16(SP)
	MOVQ 0(CX), R12
	MOVQ R12, R13
	MOVQ R12, R14
	MOVQ R12, R15
	CMPQ BX, $2
	JLT  dmq5_acts
	MOVQ 24(AX), DX
	MOVQ DX, a1-32(SP)
	MOVQ 24(CX), R13
	CMPQ BX, $3
	JLT  dmq5_acts
	MOVQ 48(AX), DX
	MOVQ DX, a2-24(SP)
	MOVQ 48(CX), R14
	CMPQ BX, $4
	JLT  dmq5_acts
	MOVQ 72(AX), DX
	MOVQ DX, a3-16(SP)
	MOVQ 72(CX), R15

dmq5_acts:
	MOVQ a0-40(SP), DX
	DMQ5_ACT(Z16, Z17, Z18, Z19)
	MOVQ a1-32(SP), DX
	DMQ5_ACT(Z20, Z21, Z22, Z23)
	MOVQ a2-24(SP), DX
	DMQ5_ACT(Z24, Z25, Z26, Z27)
	MOVQ a3-16(SP), DX
	DMQ5_ACT(Z28, Z29, Z30, Z31)

dmq5_tile:
	TESTQ R9, R9
	JE    dmq5_done
	MOVL  (R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq5_done
	LEAQ  (AX)(AX*2), AX
	MOVQ  n+48(FP), DX
	ROWPTR(R11, DX, SI, dmq5_done)
	MOVQ  SI, DI
	MOVQ  $1, BX
	CMPQ  R9, $1
	JE    dmq5_dot
	MOVL  4(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq5_dot
	LEAQ  (AX)(AX*2), AX
	ROWPTR(R11, DX, DI, dmq5_dot)
	MOVQ  $2, BX
	CMPQ  R9, $3
	JLT   dmq5_dot
	MOVL  8(R8), AX
	CMPQ  AX, nrows+8(FP)
	JAE   dmq5_dot
	LEAQ  (AX)(AX*2), AX
	MOVQ  (R11)(AX*8), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	CMPQ  R9, $4
	JLT   dmq5_dot
	MOVL  12(R8), AX
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
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ nb-8(SP), DX
	CMPQ DX, $1
	JLT  dmq5_reduce
	DMQ5_BLOCK(0, K1, Z16, Z20, Z24, Z28)
	CMPQ DX, $2
	JLT  dmq5_reduce
	DMQ5_BLOCK(64, K2, Z17, Z21, Z25, Z29)
	CMPQ DX, $3
	JLT  dmq5_reduce
	DMQ5_BLOCK(128, K3, Z18, Z22, Z26, Z30)
	CMPQ DX, $4
	JLT  dmq5_reduce
	DMQ5_BLOCK(192, K4, Z19, Z23, Z27, Z31)
	SUBQ $4, DX
	JLE  dmq5_reduce
	MOVQ $256, CX
	KXNORQ K6, K6, K6

dmq5_mem:
	CMPQ DX, $1
	JNE  dmq5_memblk
	KMOVQ K5, K6

dmq5_memblk:
	VMOVDQU8.Z (SI)(CX*1), K6, Z8
	VMOVDQU8.Z (DI)(CX*1), K6, Z9
	DMQ5_MEM(a0-40(SP), Z0, Z4)
	DMQ5_MEM(a1-32(SP), Z1, Z5)
	DMQ5_MEM(a2-24(SP), Z2, Z6)
	DMQ5_MEM(a3-16(SP), Z3, Z7)
	ADDQ $64, CX
	DECQ DX
	JNZ  dmq5_mem

dmq5_reduce:
	// 512→256: Z8 = row 0's (sample 0 | sample 1) halves, Z10 = row 0's
	// (2 | 3), Z12 and Z14 the same of row 1.
	VSHUFI64X2 $0x44, Z1, Z0, Z8
	VSHUFI64X2 $0xEE, Z1, Z0, Z9
	VPADDD     Z9, Z8, Z8
	VSHUFI64X2 $0x44, Z3, Z2, Z10
	VSHUFI64X2 $0xEE, Z3, Z2, Z11
	VPADDD     Z11, Z10, Z10
	VSHUFI64X2 $0x44, Z5, Z4, Z12
	VSHUFI64X2 $0xEE, Z5, Z4, Z13
	VPADDD     Z13, Z12, Z12
	VSHUFI64X2 $0x44, Z7, Z6, Z14
	VSHUFI64X2 $0xEE, Z7, Z6, Z15
	VPADDD     Z15, Z14, Z14

	// 256→128: sample s in 128-bit lane s, Z9 row 0 and Z13 row 1.
	VSHUFI64X2 $0x88, Z10, Z8, Z9
	VSHUFI64X2 $0xDD, Z10, Z8, Z11
	VPADDD     Z11, Z9, Z9
	VSHUFI64X2 $0x88, Z14, Z12, Z13
	VSHUFI64X2 $0xDD, Z14, Z12, Z15
	VPADDD     Z15, Z13, Z13

	// In each lane, row 0's a0-a3 and row 1's b0-b3: (a0+a2, a1+a3, b0+b2,
	// b1+b3), reordered to (a0+a2, b0+b2, a1+a3, b1+b3), plus its qword
	// swap: (Σa, Σb) in the low two int32.
	VPUNPCKLQDQ Z13, Z9, Z10
	VPUNPCKHQDQ Z13, Z9, Z11
	VPADDD      Z11, Z10, Z10
	VPSHUFD     $0xD8, Z10, Z10
	VPSHUFD     $0x4E, Z10, Z11
	VPADDD      Z11, Z10, Z10
	CMPQ BX, $2
	JLT  dmq5_store1
	DMQ5_STORE(VMOVQ)
	JMP  dmq5_next

dmq5_store1:
	DMQ5_STORE(VMOVD)

dmq5_next:
	LEAQ (R8)(BX*4), R8
	LEAQ (R10)(BX*4), R10
	SUBQ BX, R9
	JMP  dmq5_tile

dmq5_done:
	VZEROUPPER
	MOVQ nids+24(FP), AX
	SUBQ R9, AX
	MOVQ AX, ret+72(FP)
	RET
