package simd

import "github.com/slide-cpu/slide/internal/bf16"

// Mixed-precision kernels for the §4.4 quantization modes. bfloat16 is a row
// loader here: stored rows widen into float32 (WidenBF16) and the float32
// kernels run on them, the unpack-then-full-width shape of FullPack. On CPX
// the paper runs VDPBF16PS dot products instead; a bf16×bf16 product is exact
// in float32, so the widened form computes the same products and differs
// only in how they are summed (see DESIGN.md "Known divergences").

// widenBF16Go is the software widening kernel of the Go tiers.
func widenBF16Go(dst []float32, src []bf16.BF16) { bf16.Expand(dst[:len(src)], src) }

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
