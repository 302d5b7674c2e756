package simd

import "github.com/slide-cpu/slide/internal/bf16"

// Mixed-precision kernels for the §4.4 quantization modes. On CPX these map
// to AVX512-BF16 instructions (VDPBF16PS dot products); here they expand
// bfloat16 lanes to float32 on the fly, which preserves the numerics and the
// halved memory traffic while paying a software conversion cost (see
// DESIGN.md "Known divergences").

// dotBF16Vec and dotBF16Scalar return the inner product of a bfloat16 vector
// and a float32 vector (the DotBF16F32 entry): the activation is stored in
// BF16 and the weights in float32, len(b) >= len(a).
func dotBF16Vec(a []bf16.BF16, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+Width <= n; i += Width {
		x := a[i : i+Width : i+Width]
		y := b[i : i+Width : i+Width]
		s0 += x[0].Float32()*y[0] + x[1].Float32()*y[1] + x[2].Float32()*y[2] + x[3].Float32()*y[3]
		s1 += x[4].Float32()*y[4] + x[5].Float32()*y[5] + x[6].Float32()*y[6] + x[7].Float32()*y[7]
		s2 += x[8].Float32()*y[8] + x[9].Float32()*y[9] + x[10].Float32()*y[10] + x[11].Float32()*y[11]
		s3 += x[12].Float32()*y[12] + x[13].Float32()*y[13] + x[14].Float32()*y[14] + x[15].Float32()*y[15]
	}
	for ; i < n; i++ {
		s0 += a[i].Float32() * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotBF16Scalar(a []bf16.BF16, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i].Float32() * b[i]
	}
	return s
}

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

// The DotManyBiasBF16Act entries compute out[k] = hBF·rows[ids[k]] +
// bias[ids[k]] for a whole active set under the BF16-activation mode (FP32
// weights, BF16 activation); see dotManyBiasVec for the contract.
func dotManyBiasBF16ActVec(rows [][]float32, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16Act row length mismatch")
		}
		out[k] = dotBF16Vec(hBF, r) + bias[id]
	}
}

func dotManyBiasBF16ActScalar(rows [][]float32, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16Act row length mismatch")
		}
		out[k] = dotBF16Scalar(hBF, r) + bias[id]
	}
}

// The DotManyBiasBF16 entries compute out[k] = rows[ids[k]]·hBF +
// bias[ids[k]] for a whole active set under the BF16-both mode (BF16 weights
// and activation).
func dotManyBiasBF16Vec(rows [][]bf16.BF16, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16 row length mismatch")
		}
		out[k] = dotBF16BothVec(r, hBF) + bias[id]
	}
}

func dotManyBiasBF16Scalar(rows [][]bf16.BF16, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16 row length mismatch")
		}
		out[k] = dotBF16BothScalar(r, hBF) + bias[id]
	}
}
