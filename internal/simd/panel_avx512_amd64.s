//go:build amd64

#include "textflag.h"
#include "walk_amd64.h"

// The int8 walk over activation panels (see dotManyU8S8Panel in
// walk_amd64.go and DESIGN.md "Quantized serving tier"). The 2 × 4 tile of
// tile_avx512_amd64.s multiplies a row's 64-byte block by a sample's and
// must then reduce sixteen lanes to one sum. Here the operands swap roles:
// the samples' u7 codes arrive as a panel, [⌈n/4⌉][32 samples][4 bytes],
// so one 64-byte load holds the same 4-byte group of sixteen samples, and a
// row's matching group, broadcast to every lane, meets all of them in one
// VPDPBUSD. Lane s of an accumulator is then sample s's running sum for that
// row, whole when the groups run out: no reduction is left, only a
// transpose to store each sample's run of rows.

// VPERMT2Q indices that interleave the 128-bit lanes of two registers U and
// V: pnlidx<>+0 gives (U.0, V.0, U.1, V.1), pnlidx<>+64 (U.2, V.2, U.3, V.3).
DATA pnlidx<>+0(SB)/8, $0
DATA pnlidx<>+8(SB)/8, $1
DATA pnlidx<>+16(SB)/8, $8
DATA pnlidx<>+24(SB)/8, $9
DATA pnlidx<>+32(SB)/8, $2
DATA pnlidx<>+40(SB)/8, $3
DATA pnlidx<>+48(SB)/8, $10
DATA pnlidx<>+56(SB)/8, $11
DATA pnlidx<>+64(SB)/8, $4
DATA pnlidx<>+72(SB)/8, $5
DATA pnlidx<>+80(SB)/8, $12
DATA pnlidx<>+88(SB)/8, $13
DATA pnlidx<>+96(SB)/8, $6
DATA pnlidx<>+104(SB)/8, $7
DATA pnlidx<>+112(SB)/8, $14
DATA pnlidx<>+120(SB)/8, $15
GLOBL pnlidx<>(SB), RODATA|NOPTR, $128

// Row r's id at off(R14) to its data pointer in dst, or to pnl_done if the
// id is out of range or the row's length is not CX.
#define PNL_ROWPTR(off, dst) \
	MOVL off(R14), AX          \
	CMPQ AX, nrows+8(FP)       \
	JAE  pnl_done              \
	LEAQ (AX)(AX*2), AX        \
	ROWPTR(BX, CX, dst, pnl_done)

// One 4-byte group of a row at byte offset CX, broadcast into B, against
// the panel's samples 0-15 (Z16) into A0 and 16-31 (Z17) into A1.
#define PNL_ROW(R, B, A0, A1) \
	VPBROADCASTD (R)(CX*1), B \
	VPDPBUSD B, Z16, A0       \
	VPDPBUSD B, Z17, A1

// One group of the tile: the panel's 4-byte group of every sample at DX,
// each of the eight rows' group at CX. Row r sums into Z(r) for samples
// 0-15 and Z(8+r) for 16-31.
#define PNL_GROUP \
	VMOVDQU32 (DX), Z16          \
	VMOVDQU32 64(DX), Z17        \
	PNL_ROW(SI, Z18, Z0, Z8)     \
	PNL_ROW(DI, Z19, Z1, Z9)     \
	PNL_ROW(R8, Z20, Z2, Z10)    \
	PNL_ROW(R9, Z21, Z3, Z11)    \
	PNL_ROW(R10, Z22, Z4, Z12)   \
	PNL_ROW(R11, Z23, Z5, Z13)   \
	PNL_ROW(R12, Z24, Z6, Z14)   \
	PNL_ROW(R13, Z25, Z7, Z15)

// Eight accumulators A0-A7 (row r in A(r), sample s in lane s) to sixteen
// runs of eight rows: 32-bit then 64-bit interleaves leave U_j = A0-A3 and
// V_j = A4-A7 with rows 0-3 and rows 4-7 of sample 4L+j in 128-bit lane L;
// VPERMT2Q pairs their lanes, so Z(16+j) holds samples j and 4+j and A(j)
// samples 8+j and 12+j, each eight rows in one 256-bit half.
#define PNL_TRANSPOSE(A0, A1, A2, A3, A4, A5, A6, A7) \
	VPUNPCKLDQ  A1, A0, Z16   \
	VPUNPCKHDQ  A1, A0, Z17   \
	VPUNPCKLDQ  A3, A2, Z18   \
	VPUNPCKHDQ  A3, A2, Z19   \
	VPUNPCKLDQ  A5, A4, Z20   \
	VPUNPCKHDQ  A5, A4, Z21   \
	VPUNPCKLDQ  A7, A6, Z22   \
	VPUNPCKHDQ  A7, A6, Z23   \
	VPUNPCKLQDQ Z18, Z16, A0  \
	VPUNPCKHQDQ Z18, Z16, A1  \
	VPUNPCKLQDQ Z19, Z17, A2  \
	VPUNPCKHQDQ Z19, Z17, A3  \
	VPUNPCKLQDQ Z22, Z20, A4  \
	VPUNPCKHQDQ Z22, Z20, A5  \
	VPUNPCKLQDQ Z23, Z21, A6  \
	VPUNPCKHQDQ Z23, Z21, A7  \
	VMOVDQA64   A0, Z16       \
	VPERMT2Q    A4, Z30, Z16  \
	VPERMT2Q    A4, Z31, A0   \
	VMOVDQA64   A1, Z17       \
	VPERMT2Q    A5, Z30, Z17  \
	VPERMT2Q    A5, Z31, A1   \
	VMOVDQA64   A2, Z18       \
	VPERMT2Q    A6, Z30, Z18  \
	VPERMT2Q    A6, Z31, A2   \
	VMOVDQA64   A3, Z19       \
	VPERMT2Q    A7, Z30, Z19  \
	VPERMT2Q    A7, Z31, A3

// Sample s's eight sums, the low (PNL_LO) or high (PNL_HI) half of a
// register, to slot k of accs[s]; off = 24s addresses its slice header. The
// absent samples are the last ones, so the first absent sample ends the
// stores.
#define PNL_LO(s, off, Y) \
	CMPQ R8, $s              \
	JLE  pnl_stored          \
	MOVQ off(R9), AX         \
	VMOVDQU32 Y, (AX)(R10*1)

#define PNL_HI(s, off, Z) \
	CMPQ R8, $s              \
	JLE  pnl_stored          \
	MOVQ off(R9), AX         \
	VEXTRACTI64X4 $1, Z, (AX)(R10*1)

// Sixteen samples from s0 = 16h, their offsets from o0 = 24·s0, after
// PNL_TRANSPOSE(A0, …).
#define PNL_STORE16(s0, o0, A0, A1, A2, A3, Y0, Y1, Y2, Y3) \
	PNL_LO(s0+0, o0+0, Y16)      \
	PNL_LO(s0+1, o0+24, Y17)     \
	PNL_LO(s0+2, o0+48, Y18)     \
	PNL_LO(s0+3, o0+72, Y19)     \
	PNL_HI(s0+4, o0+96, Z16)     \
	PNL_HI(s0+5, o0+120, Z17)    \
	PNL_HI(s0+6, o0+144, Z18)    \
	PNL_HI(s0+7, o0+168, Z19)    \
	PNL_LO(s0+8, o0+192, Y0)     \
	PNL_LO(s0+9, o0+216, Y1)     \
	PNL_LO(s0+10, o0+240, Y2)    \
	PNL_LO(s0+11, o0+264, Y3)    \
	PNL_HI(s0+12, o0+288, A0)    \
	PNL_HI(s0+13, o0+312, A1)    \
	PNL_HI(s0+14, o0+336, A2)    \
	PNL_HI(s0+15, o0+360, A3)

// func dotManyU8S8PanelAsm(rows *[]int8, nrows int64, ids *int32, nids int64, panel *[32][4]uint8, n, ns int64, accs *[]int32) int64
//
// accs[s][k] = Σ qa_s[i]·rows[ids[k]][i] for s < ns <= 32, in tiles of 8
// rows × all ns samples, where the panel holds the ns samples' codes
// qa_s as dotManyU8S8Panel lays them out, n >= 4. The 16 accumulators are
// rows × 16-sample halves, whatever ns: the lanes of absent samples meet
// the panel's zeros and are not stored.
// The tiles' ids are checked as in the 2 × 4 tile: the walk stops at the
// first tile that holds an id out of range or a row whose length is not n,
// or that has fewer than 8 ids left, and returns the position of its first
// id — a multiple of 8 — so that the caller can walk the rest by the tile.
// Nothing is read past a row: every row load is 4 bytes inside it.
//
// BX rows, R14 ids cursor, R15 ids left, SI, DI, R8-R13 the tile's eight
// rows, CX byte offset into them, DX the panel's current group, AX group
// count; after the loop R8 ns, R9 accs, R10 byte offset of slot k.
TEXT ·dotManyU8S8PanelAsm(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), BX
	MOVQ ids+16(FP), R14
	MOVQ nids+24(FP), R15
	VMOVDQU64 pnlidx<>+0(SB), Z30
	VMOVDQU64 pnlidx<>+64(SB), Z31

pnl_tile:
	CMPQ R15, $8
	JLT  pnl_done
	MOVQ n+40(FP), CX
	PNL_ROWPTR(0, SI)
	PNL_ROWPTR(4, DI)
	PNL_ROWPTR(8, R8)
	PNL_ROWPTR(12, R9)
	PNL_ROWPTR(16, R10)
	PNL_ROWPTR(20, R11)
	PNL_ROWPTR(24, R12)
	PNL_ROWPTR(28, R13)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	// AX full groups at CX = 0, 4, …, then, for a row length n%4 != 0, the
	// row's last four bytes at CX = n-4 against the panel's last group,
	// which holds each sample's last n%4 codes behind zeros (so the bytes
	// the full groups already took count zero times more).
	XORQ CX, CX
	MOVQ panel+32(FP), DX
	MOVQ n+40(FP), AX
	SHRQ $2, AX
	JEQ  pnl_tail

pnl_loop:
	PNL_GROUP
	ADDQ $4, CX
	ADDQ $128, DX
	DECQ AX
	JNE  pnl_loop

pnl_tail:
	MOVQ n+40(FP), CX
	TESTQ $3, CX
	JEQ  pnl_sums
	SUBQ $4, CX
	PNL_GROUP

pnl_sums:
	MOVQ ns+48(FP), R8
	MOVQ accs+56(FP), R9
	MOVQ R14, R10
	SUBQ ids+16(FP), R10
	PNL_TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	PNL_STORE16(0, 0, Z0, Z1, Z2, Z3, Y0, Y1, Y2, Y3)
	CMPQ R8, $16
	JLE  pnl_stored
	PNL_TRANSPOSE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	PNL_STORE16(16, 384, Z8, Z9, Z10, Z11, Y8, Y9, Y10, Y11)

pnl_stored:
	ADDQ $32, R14
	SUBQ $8, R15
	JMP  pnl_tile

pnl_done:
	VZEROUPPER
	MOVQ nids+24(FP), AX
	SUBQ R15, AX
	MOVQ AX, ret+64(FP)
	RET
