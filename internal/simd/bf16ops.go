package simd

import "github.com/slide-cpu/slide/internal/bf16"

// Mixed-precision kernels for the §4.4 quantization modes. On CPX these map
// to AVX512-BF16 instructions (VDPBF16PS dot products); here they expand
// bfloat16 lanes to float32 on the fly, which preserves the numerics and the
// halved memory traffic while paying a software conversion cost (see
// DESIGN.md "Known divergences").

// dotBF16BothVec and dotBF16BothScalar return the inner product of two
// bfloat16 vectors (the DotBF16 entry: both weights and activations
// quantized).
func dotBF16BothVec(a, b []bf16.BF16) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		s0 += x[0].Float32()*y[0].Float32() + x[1].Float32()*y[1].Float32() +
			x[2].Float32()*y[2].Float32() + x[3].Float32()*y[3].Float32()
		s1 += x[4].Float32()*y[4].Float32() + x[5].Float32()*y[5].Float32() +
			x[6].Float32()*y[6].Float32() + x[7].Float32()*y[7].Float32()
	}
	for ; i < n; i++ {
		s0 += a[i].Float32() * b[i].Float32()
	}
	return s0 + s1
}

func dotBF16BothScalar(a, b []bf16.BF16) float32 {
	var s float32
	for i := range a {
		s += a[i].Float32() * b[i].Float32()
	}
	return s
}

// axpyBF16Vec and axpyBF16Scalar compute y += alpha*x where x is stored in
// bfloat16 (len(y) >= len(x)).
func axpyBF16Vec(alpha float32, x []bf16.BF16, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+Width <= n; i += Width {
		xx := x[i : i+Width : i+Width]
		yy := y[i : i+Width : i+Width]
		for k := 0; k < Width; k++ {
			yy[k] += alpha * xx[k].Float32()
		}
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i].Float32()
	}
}

func axpyBF16Scalar(alpha float32, x []bf16.BF16, y []float32) {
	for i := range x {
		y[i] += alpha * x[i].Float32()
	}
}

// adamStepBF16 applies one fused ADAM update to weights stored in bfloat16
// (mode 1). The first and second moments stay in float32; each weight lane is
// expanded, updated, and re-rounded to BF16 (round-to-nearest-even), exactly
// what an AVX512-BF16 pipeline does around its FP32 accumulators. The
// element-local math is identical under every kernel mode, so a single
// implementation backs every table. m, v and g must hold at least len(w)
// values.
func adamStepBF16(w []bf16.BF16, m, v, g []float32, p AdamParams) {
	omb1 := 1 - p.Beta1
	omb2 := 1 - p.Beta2
	for i := range w {
		gk := g[i]
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] = bf16.FromFloat32(w[i].Float32() - p.CorrLR*mk/(sqrt32(vk)+p.Eps))
	}
}
