package simd

// This file holds the active-set walk kernels: every loop over an index list
// of weight vectors against one dense operand, as one call per sample. The
// dense operand — the hidden activation, its gradient, or both — is the
// reused one, so the assembly tiers load it into vector registers once and
// stream the listed vectors past it (§4.3 of the paper; walk_amd64.go and
// the walk_*_amd64.s files). The portable forms below loop the per-row
// kernels of their tier and are what every tier's result is defined as:
// a walk is bit-identical to calling the same tier's per-row kernel once per
// id, in list order. Order matters — an id may repeat within one list, and
// the second visit must see the first one's update.
//
// DotManyBias, the forward walk of the same family, lives in fused.go.
//
// The exact output pass scores a block of rows against every sample of a
// batch, so there the listed rows are the reused operand too: the tiled
// walks at the end of this file, DotManyBiasBatch and DotManyU8S8, take an
// id list and a batch of dense operands, and their assembly forms load each
// listed row once for a register tile of samples (WalkTile of them at most;
// how many a tier's tile holds is that routine's business — a longer batch
// is walked in tiles, not rejected).
//
// All of these kernels bounds-check every id against the vector count and
// compare every listed vector's length with the dense operand's, and panic
// on the first offender after having processed the ids before it — the
// per-row loops' behaviour, kept by the assembly.

// The kernels, by table entry:
//
// AxpyTwoMany is the whole Algorithm 1 backward pass over one active set:
// for each k in list order, grad[ids[k]] += gz[k]·h and dh += gz[k]·w[ids[k]].
// gz must hold at least len(ids) values, dh and every listed row of grad and
// w must have len(h) elements. The (h, grad) and (w, dh) pairs must not
// alias.
//
// GatherAxpy accumulates a weighted sum of listed vectors into one dense
// vector: y += Σ alpha[k]·rows[ids[k]], in list order — Algorithm 2's
// forward pass over the non-zeros of one sparse input. alpha must hold at
// least len(ids) values and every listed row must have len(y) elements.
//
// ScatterAxpy adds a scaled copy of one dense vector into each listed
// vector: rows[ids[k]] += alpha[k]·x, in list order — Algorithm 2's weight
// gradient over the non-zeros of one sparse input. alpha must hold at least
// len(ids) values and every listed row must have len(x) elements.

// checkAxpyTwoMany enforces the slice-length half of the AxpyTwoMany
// contract; the per-id half is checked as the walk reaches each id.
func checkAxpyTwoMany(gz []float32, ids []int32, h, dh []float32) {
	if len(gz) < len(ids) {
		panic("simd: AxpyTwoMany gz shorter than ids")
	}
	if len(dh) != len(h) {
		panic("simd: AxpyTwoMany length mismatch")
	}
}

func checkAxpyMany(name string, alpha []float32, ids []int32) {
	if len(alpha) < len(ids) {
		panic("simd: " + name + " alpha shorter than ids")
	}
}

// axpyTwoManyRows is the portable AxpyTwoMany over a per-row kernel.
func axpyTwoManyRows(axpyTwo func(gz float32, h, grad, w, dh []float32),
	gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	checkAxpyTwoMany(gz, ids, h, dh)
	for k, id := range ids {
		g, r := grad[id], w[id]
		if len(g) != len(h) || len(r) != len(h) {
			panic("simd: AxpyTwoMany row length mismatch")
		}
		axpyTwo(gz[k], h, g, r, dh)
	}
}

func axpyTwoManyVec(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	axpyTwoManyRows(axpyTwoUnfusedVec, gz, ids, h, grad, w, dh)
}

func axpyTwoManyScalar(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	axpyTwoManyRows(axpyTwoUnfusedScalar, gz, ids, h, grad, w, dh)
}

// gatherAxpyRows and scatterAxpyRows are the portable forms over a per-row
// axpy kernel.
func gatherAxpyRows(axpy func(alpha float32, x, y []float32),
	alpha []float32, ids []int32, rows [][]float32, y []float32) {
	checkAxpyMany("GatherAxpy", alpha, ids)
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(y) {
			panic("simd: GatherAxpy row length mismatch")
		}
		axpy(alpha[k], r, y)
	}
}

func scatterAxpyRows(axpy func(alpha float32, x, y []float32),
	alpha []float32, ids []int32, x []float32, rows [][]float32) {
	checkAxpyMany("ScatterAxpy", alpha, ids)
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(x) {
			panic("simd: ScatterAxpy row length mismatch")
		}
		axpy(alpha[k], x, r)
	}
}

func gatherAxpyVec(alpha []float32, ids []int32, rows [][]float32, y []float32) {
	gatherAxpyRows(axpyVec, alpha, ids, rows, y)
}

func gatherAxpyScalar(alpha []float32, ids []int32, rows [][]float32, y []float32) {
	gatherAxpyRows(axpyScalar, alpha, ids, rows, y)
}

func scatterAxpyVec(alpha []float32, ids []int32, x []float32, rows [][]float32) {
	scatterAxpyRows(axpyVec, alpha, ids, x, rows)
}

func scatterAxpyScalar(alpha []float32, ids []int32, x []float32, rows [][]float32) {
	scatterAxpyRows(axpyScalar, alpha, ids, x, rows)
}

// WalkTile is the widest sample tile of any tier's tiled walk. A caller that
// owns per-sample scratch sizes it for this many and hands the tiled walks
// groups of it; fewer is always accepted and more is walked in tiles.
const WalkTile = 4

// DotManyBiasBatch fills outs[s][k] = rows[ids[k]]·hs[s] + bias[ids[k]] for
// every listed id and every sample — DotManyBias over a batch of activations
// of one length. Every logit is bit-identical to Dot(rows[id], hs[s]) +
// bias[id] of the same tier: the assembly tiles keep the per-row dot's
// accumulators, block order and reduction tree per sample (walk_amd64.go).
// Every outs[s] must hold at least len(ids) values.
//
// DotManyU8S8 fills accs[s][k] = DotU8S8(qas[s], rows[ids[k]]) for every
// listed id and every sample: the integer walk of the quantized tier.
// Integer sums are exact in any order, so every tier yields the identical
// accumulator under DotU8S8's operand contract (activations in [0,127]).
// The activations must share one length, every listed row must have it, and
// every accs[s] must hold at least len(ids) values.

// checkDotManyBiasBatch and checkDotManyU8S8 enforce the slice-length half of
// the tiled walks' contracts; the per-id half is checked as a walk reaches
// each id.
func checkDotManyBiasBatch(ids []int32, hs, outs [][]float32) {
	if len(outs) != len(hs) {
		panic("simd: DotManyBiasBatch batch size mismatch")
	}
	for s, h := range hs {
		if len(h) != len(hs[0]) {
			panic("simd: DotManyBiasBatch activation length mismatch")
		}
		if len(outs[s]) < len(ids) {
			panic("simd: DotManyBiasBatch output buffer too short")
		}
	}
}

func checkDotManyU8S8(ids []int32, qas [][]uint8, accs [][]int32) {
	if len(accs) != len(qas) {
		panic("simd: DotManyU8S8 batch size mismatch")
	}
	for s, qa := range qas {
		if len(qa) != len(qas[0]) {
			panic("simd: DotManyU8S8 activation length mismatch")
		}
		if len(accs[s]) < len(ids) {
			panic("simd: DotManyU8S8 accumulator buffer too short")
		}
	}
}

// The portable tiled walks other than dotManyU8S8Vec loop their tier's
// single-operand kernel over the samples and are the definition of the
// assembly tiles.

func dotManyBiasBatchVec(rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32) {
	checkDotManyBiasBatch(ids, hs, outs)
	for s, h := range hs {
		dotManyBiasVec(rows, bias, ids, h, outs[s])
	}
}

func dotManyBiasBatchScalar(rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32) {
	checkDotManyBiasBatch(ids, hs, outs)
	for s, h := range hs {
		dotManyBiasScalar(rows, bias, ids, h, outs[s])
	}
}

func dotManyU8S8Rows(dot func(a []uint8, b []int8) int32, rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32) {
	checkDotManyU8S8(ids, qas, accs)
	if len(qas) == 0 {
		return
	}
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(qas[0]) {
			panic("simd: DotU8S8 length mismatch")
		}
		for s, qa := range qas {
			accs[s][k] = dot(qa, r)
		}
	}
}

// dotManyU8S8Vec scores the samples two at a time, each listed row loaded
// once for the pair and both dots in one int64 multiply per byte: with
// p = a0 + a1·2³², Σ p·w = S0 + S1·2³² exactly, and since each sum fits an
// int32 (rows of up to pairCols bytes: |S| ≤ 512·255·128 < 2³¹) the low 32
// bits are S0 and the rest S1. Longer rows, and a batch's last sample when
// the count is odd, take the per-row loop.
func dotManyU8S8Vec(rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32) {
	checkDotManyU8S8(ids, qas, accs)
	if len(qas) == 0 {
		return
	}
	n := len(qas[0])
	s := 0
	if n <= pairCols {
		var p [pairCols]int64
		for ; s+1 < len(qas); s += 2 {
			pp := p[:n]
			for i, a := range qas[s] {
				pp[i] = int64(a) | int64(qas[s+1][i])<<32
			}
			for k, id := range ids {
				r := rows[id]
				if len(r) != n {
					panic("simd: DotU8S8 length mismatch")
				}
				t := dotPair(r, pp)
				lo := int32(t)
				accs[s][k], accs[s+1][k] = lo, int32((t-int64(lo))>>32)
			}
		}
	}
	dotManyU8S8Rows(dotU8S8Vec, rows, ids, qas[s:], accs[s:])
}

// pairCols bounds the rows dotManyU8S8Vec packs sample pairs for, and so
// its stack buffer (4 KiB); the fixtures' hidden layers are 128 and 200
// wide.
const pairCols = 512

// dotPair is Σ p[i]·r[i] over r's length, four chains.
func dotPair(r []int8, p []int64) int64 {
	p = p[:len(r)]
	var t0, t1, t2, t3 int64
	i := 0
	for ; i+4 <= len(r); i += 4 {
		w, q := r[i:i+4:i+4], p[i:i+4:i+4]
		t0 += q[0] * int64(w[0])
		t1 += q[1] * int64(w[1])
		t2 += q[2] * int64(w[2])
		t3 += q[3] * int64(w[3])
	}
	for ; i < len(r); i++ {
		t0 += p[i] * int64(r[i])
	}
	return t0 + t1 + t2 + t3
}

func dotManyU8S8Scalar(rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32) {
	dotManyU8S8Rows(dotU8S8Scalar, rows, ids, qas, accs)
}
