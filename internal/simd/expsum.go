package simd

import "math"

// ExpSum is the label head's exponential pass: out[i] = float32(exp(x[i]-m))
// and the float64 exps summed onto z in index order. The loop below is the
// definition, and the Scalar and Vector tiers run it as it is. On amd64
// math.Exp is archExp ($GOROOT/src/math/exp_amd64.s), Shibata's branch-free
// SIMD method run one lane wide; on every host with an assembly tier it takes
// its FMA branch, and the assembly tiers (expsum_amd64.s) run that same
// instruction sequence in 8 (AVX-512) or 4 (AVX2) float64 lanes, so they
// return the same bits. A block holding a lane off archExp's fast path —
// NaN, ±Inf, overflow, the denormal and underflow band — goes through this
// loop instead, and the sum still adds the exps one at a time in index
// order. out must have at least len(x) elements; nothing past len(x) is
// written.

// expSum is the definition of the ExpSum entries.
func expSum(x []float32, m float32, out []float32, z float64) float64 {
	out = out[:len(x)]
	for i, v := range x {
		e := math.Exp(float64(v - m))
		out[i] = float32(e)
		z += e
	}
	return z
}
