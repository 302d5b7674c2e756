package simd

import "math"

// AdamParams bundles the hyperparameters of one ADAM step. CorrLR folds the
// learning rate together with the bias-correction terms:
//
//	CorrLR = lr * sqrt(1-beta2^t) / (1-beta1^t)
//
// so the inner loop is exactly the paper's Figure 3 stream: one fused pass
// over (w, m, v, g) in contiguous memory.
type AdamParams struct {
	Beta1, Beta2 float32
	Eps          float32
	CorrLR       float32
}

// NewAdamParams computes the fused step parameters for step t (1-based).
func NewAdamParams(lr, beta1, beta2, eps float64, t int64) AdamParams {
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	return AdamParams{
		Beta1:  float32(beta1),
		Beta2:  float32(beta2),
		Eps:    float32(eps),
		CorrLR: float32(lr * math.Sqrt(bc2) / bc1),
	}
}

// adamVec and adamScalar apply one ADAM update over the contiguous block:
//
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + (1-beta2)*g^2
//	w -= CorrLR * m / (sqrt(v) + eps)
//
// m, v and g must hold at least len(w) values. This is the §4.3.1 kernel:
// because the weight matrix is one contiguous block, the 2D update collapses
// into this 1D blocked loop.
func adamVec(w, m, v, g []float32, p AdamParams) {
	n := len(w)
	m = m[:n]
	v = v[:n]
	g = g[:n]
	omb1 := 1 - p.Beta1
	omb2 := 1 - p.Beta2
	i := 0
	for ; i+Width <= n; i += Width {
		ww := w[i : i+Width : i+Width]
		mm := m[i : i+Width : i+Width]
		vv := v[i : i+Width : i+Width]
		gg := g[i : i+Width : i+Width]
		for k := 0; k < Width; k++ {
			gk := gg[k]
			mk := p.Beta1*mm[k] + omb1*gk
			vk := p.Beta2*vv[k] + omb2*gk*gk
			mm[k] = mk
			vv[k] = vk
			ww[k] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
		}
	}
	for ; i < n; i++ {
		gk := g[i]
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
	}
}

func adamScalar(w, m, v, g []float32, p AdamParams) {
	omb1 := 1 - p.Beta1
	omb2 := 1 - p.Beta2
	for i := range w {
		gk := g[i]
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
	}
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
