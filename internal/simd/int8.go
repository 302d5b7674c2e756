package simd

// Integer dot kernels for the quantized serving tier (internal/quant).
//
// The contract is stricter than the float kernels': every tier must produce
// the IDENTICAL int32, not a tolerance-equal one. That is achievable because
// the accumulation is exact integer math (associativity holds), provided no
// intermediate saturates. The operand ranges guarantee it:
//
//   - a holds quantized activations in [0, 127] (quant.RowQ clamps to u7
//     precisely so the AVX2 VPMADDWD/VPMADDUBSW family cannot saturate:
//     a pairwise sum is at most 2*127*127 = 32258 < 32767), and
//   - b holds symmetric int8 weights in [-127, 127].
//
// A full dot over 2^28 elements (maxViewDim) peaks at 2^28 * 127 * 127 ≈
// 2^42, which overflows int32 in theory; in practice In is the hidden width
// (tens to a few thousand), bounded far below the 2^31/16129 ≈ 133k element
// overflow horizon. quant.MaxDotLen enforces the bound at packing time.

// dotU8S8Scalar is the definition of the DotU8S8 entries: the integer inner
// product of unsigned-byte activations a and signed-byte weights b,
// sum(int32(a[i]) * int32(b[i])), with len(b) >= len(a).
func dotU8S8Scalar(a []uint8, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// dotU8S8Vec is the unrolled portable implementation. Integer accumulation
// is exact, so the 4-chain unroll is bit-identical to the scalar loop — the
// unroll exists purely for throughput on non-amd64 builds.
func dotU8S8Vec(a []uint8, b []int8) int32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+Width <= n; i += Width {
		x := a[i : i+Width : i+Width]
		y := b[i : i+Width : i+Width]
		s0 += int32(x[0])*int32(y[0]) + int32(x[1])*int32(y[1]) +
			int32(x[2])*int32(y[2]) + int32(x[3])*int32(y[3])
		s1 += int32(x[4])*int32(y[4]) + int32(x[5])*int32(y[5]) +
			int32(x[6])*int32(y[6]) + int32(x[7])*int32(y[7])
		s2 += int32(x[8])*int32(y[8]) + int32(x[9])*int32(y[9]) +
			int32(x[10])*int32(y[10]) + int32(x[11])*int32(y[11])
		s3 += int32(x[12])*int32(y[12]) + int32(x[13])*int32(y[13]) +
			int32(x[14])*int32(y[14]) + int32(x[15])*int32(y[15])
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}
