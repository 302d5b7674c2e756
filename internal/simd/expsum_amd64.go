//go:build amd64

package simd

// Go side of the ExpSum assembly (expsum_amd64.s). Each routine takes whole
// blocks of its lane count (8 for AVX-512, 4 for AVX2), n > 0, and returns
// the running sum and how many elements it finished: it stops before the
// first block holding a lane off archExp's fast path. The wrapper sends that
// block and the last len(x)%lanes elements through the definition, so every
// exp lands on the sum in index order whichever side computed it.

//go:noescape
func expSumAVX512Asm(x *float32, m float32, out *float32, n int64, z float64) (sum float64, done int64)

//go:noescape
func expSumAVX2Asm(x *float32, m float32, out *float32, n int64, z float64) (sum float64, done int64)

func expSumAVX512(x []float32, m float32, out []float32, z float64) float64 {
	return expSumAsm(expSumAVX512Asm, 8, x, m, out, z)
}

func expSumAVX2(x []float32, m float32, out []float32, z float64) float64 {
	return expSumAsm(expSumAVX2Asm, 4, x, m, out, z)
}

func expSumAsm(asm func(x *float32, m float32, out *float32, n int64, z float64) (float64, int64),
	lanes int, x []float32, m float32, out []float32, z float64) float64 {
	n := len(x)
	out = out[:n]
	nv := n - n%lanes
	for i := 0; i < nv; {
		var done int64
		z, done = asm(&x[i], m, &out[i], int64(nv-i), z)
		if i += int(done); i < nv {
			z = expSum(x[i:i+lanes], m, out[i:i+lanes], z)
			i += lanes
		}
	}
	return expSum(x[nv:], m, out[nv:], z)
}
