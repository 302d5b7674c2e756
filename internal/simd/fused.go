package simd

// This file holds the fused batch kernels: single-pass combinations of the
// primitive kernels that cut call overhead and memory traffic in the training
// hot path. Each one exists because the unfused form pays a cost the paper's
// intrinsics code never does — a call, a reload of h and a horizontal
// reduction set-up per dot product (DotManyBias), two walks over the same
// cache lines in the per-row backward pass (AxpyTwo), or two passes over
// every touched gradient row in the optimizer (AdamStepZero). DotManyBias
// belongs to the family of active-set walks, one call per sample, whose
// other members live in walk.go. Callers reach the mode-resolved
// implementations through the Kernels table (see kernels.go), so the atomic
// mode load happens once per batch, not once per row.

// The DotManyBias entries fill out[k] = rows[ids[k]]·h + bias[ids[k]] for
// every id in ids — the whole Algorithm 1 forward pass over one active set in
// a single call. The Go tiers below loop their per-row dot; the assembly tiers
// are one routine that keeps h in vector registers and streams the listed
// rows past it (walk_amd64.go), reproducing the per-row dot's accumulators,
// block order and reduction so that every logit is bit-identical to the same
// tier's Dot(rows[id], h) + bias[id]. Every referenced row must have len(h)
// elements; out must have at least len(ids).
func dotManyBiasVec(rows [][]float32, bias []float32, ids []int32, h, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(h) {
			panic("simd: DotManyBias row length mismatch")
		}
		out[k] = dotVec(r, h) + bias[id]
	}
}

func dotManyBiasScalar(rows [][]float32, bias []float32, ids []int32, h, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(h) {
			panic("simd: DotManyBias row length mismatch")
		}
		out[k] = dotScalar(r, h) + bias[id]
	}
}

// The AxpyTwo entries fuse the two axpys of the Algorithm 1 backward pass
// into one walk: grad += gz*h (the weight-gradient accumulation) and dh +=
// gz*w (the input-gradient accumulation) share loop control and the broadcast
// of gz. grad, w and dh must hold at least len(h) values. Aliasing between
// the (h, grad) and (w, dh) pairs is not supported.
//
// axpyTwoUnfusedVec and axpyTwoUnfusedScalar implement the AxpyTwo contract
// as two independent axpy walks, which is what the Go tiers run: a single
// fused Go loop over all four slices measured ~20% SLOWER than two
// independent axpys — the four live slice pointers defeat the scheduler
// (DESIGN.md "Known divergences" keeps the number; the loop itself is
// deleted). The assembly tiers use a genuinely fused loop, which measures
// ~1.6x FASTER than two asm axpys (one load of gz's broadcast and one loop
// control per block instead of two full passes). Both walk orders produce
// bit-identical results because the slice pairs never alias.
func axpyTwoUnfusedVec(gz float32, h, grad, w, dh []float32) {
	axpyVec(gz, h, grad)
	axpyVec(gz, w, dh)
}

func axpyTwoUnfusedScalar(gz float32, h, grad, w, dh []float32) {
	axpyScalar(gz, h, grad)
	axpyScalar(gz, w, dh)
}

// The AdamStepZero entries are AdamStep fused with the gradient clear: each
// gradient lane is consumed and zeroed in the same pass, so a touched row is
// walked once per batch instead of twice (AdamStep then Zero) — halving the
// traffic over the gradient row and saving one full pass over (w, m, v)
// re-fetches when the row has fallen out of cache between the two walks.
func adamZeroVec(w, m, v, g []float32, p AdamParams) {
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
			gg[k] = 0
			mk := p.Beta1*mm[k] + omb1*gk
			vk := p.Beta2*vv[k] + omb2*gk*gk
			mm[k] = mk
			vv[k] = vk
			ww[k] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
		}
	}
	for ; i < n; i++ {
		gk := g[i]
		g[i] = 0
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
	}
}

func adamZeroScalar(w, m, v, g []float32, p AdamParams) {
	omb1 := 1 - p.Beta1
	omb2 := 1 - p.Beta2
	for i := range w {
		gk := g[i]
		g[i] = 0
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
	}
}
