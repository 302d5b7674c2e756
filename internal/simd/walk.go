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
// All four kernels bounds-check every id against the vector count and
// compare every listed vector's length with the dense operand's, and panic
// on the first offender after having processed the ids before it — the
// per-row loops' behaviour, kept by the assembly.

// AxpyTwoMany is the whole Algorithm 1 backward pass over one active set:
// for each k in list order, grad[ids[k]] += gz[k]·h and dh += gz[k]·w[ids[k]].
// gz must hold at least len(ids) values, dh and every listed row of grad and
// w must have len(h) elements. The (h, grad) and (w, dh) pairs must not
// alias.
func AxpyTwoMany(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	Active().AxpyTwoMany(gz, ids, h, grad, w, dh)
}

// GatherAxpy accumulates a weighted sum of listed vectors into one dense
// vector: y += Σ alpha[k]·rows[ids[k]], in list order — Algorithm 2's
// forward pass over the non-zeros of one sparse input. alpha must hold at
// least len(ids) values and every listed row must have len(y) elements.
func GatherAxpy(alpha []float32, ids []int32, rows [][]float32, y []float32) {
	Active().GatherAxpy(alpha, ids, rows, y)
}

// ScatterAxpy adds a scaled copy of one dense vector into each listed
// vector: rows[ids[k]] += alpha[k]·x, in list order — Algorithm 2's weight
// gradient over the non-zeros of one sparse input. alpha must hold at least
// len(ids) values and every listed row must have len(x) elements.
func ScatterAxpy(alpha []float32, ids []int32, x []float32, rows [][]float32) {
	Active().ScatterAxpy(alpha, ids, x, rows)
}

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
