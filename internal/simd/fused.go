package simd

// This file holds the fused batch kernels: single-pass combinations of the
// primitive kernels that cut call overhead and memory traffic in the training
// hot path. Each one exists because the unfused form pays a cost the paper's
// intrinsics code never does — a call, a reload of h and a horizontal
// reduction set-up per dot product (DotManyBias), or two walks over the same
// cache lines in the per-row backward pass (AxpyTwo). DotManyBias belongs to
// the family of active-set walks, one call per sample, whose other members
// live in walk.go. Callers reach the mode-resolved implementations through
// the Kernels table (see kernels.go), so the atomic mode load happens once
// per batch, not once per row.

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
