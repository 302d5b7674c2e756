// Macros shared by the active-set walk routines of both assembly tiers
// (walk_avx512_amd64.s, walk_avx2_amd64.s).

// ROWPTR: AX = 3*id on entry, base = slice-header array (24 bytes per
// header: pointer, length, capacity). Compares the header's length with want
// and loads its data pointer into dst.
#define ROWPTR(base, want, dst, fail) \
	CMPQ 8(base)(AX*8), want \
	JNE  fail \
	MOVQ (base)(AX*8), dst

// PREFETCH4: the first four cache lines of the vector at r.
#define PREFETCH4(r) \
	PREFETCHT0 (r)    \
	PREFETCHT0 64(r)  \
	PREFETCHT0 128(r) \
	PREFETCHT0 192(r)
