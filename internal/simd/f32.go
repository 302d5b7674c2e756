package simd

// This file holds the float32 kernels that back Algorithm 1 (dense x,
// row-major W: blocked dot products with a final reduce) and Algorithm 2
// (sparse x, column-major W: broadcast one scalar, multiply a 16-lane block
// of the weight column, accumulate into the dense output), plus the generic
// slice utilities shared by the optimizer and the baselines.

// dotVec and dotScalar return the inner product of a and b (len(b) >= len(a)).
func dotVec(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+Width <= n; i += Width {
		x := a[i : i+Width : i+Width]
		y := b[i : i+Width : i+Width]
		s0 += x[0]*y[0] + x[1]*y[1] + x[2]*y[2] + x[3]*y[3]
		s1 += x[4]*y[4] + x[5]*y[5] + x[6]*y[6] + x[7]*y[7]
		s2 += x[8]*y[8] + x[9]*y[9] + x[10]*y[10] + x[11]*y[11]
		s3 += x[12]*y[12] + x[13]*y[13] + x[14]*y[14] + x[15]*y[15]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotScalar(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpyVec and axpyScalar compute y += alpha*x (the BLAS axpy; len(y) >=
// len(x)). This is the backward-pass kernel for Algorithm 1 — accumulating
// grad_i * W[i] rows into the dense input gradient — and, over a weight
// column, Algorithm 2's inner step: alpha is one non-zero of the sparse input
// broadcast into a register.
func axpyVec(alpha float32, x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+Width <= n; i += Width {
		xx := x[i : i+Width : i+Width]
		yy := y[i : i+Width : i+Width]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
		yy[4] += alpha * xx[4]
		yy[5] += alpha * xx[5]
		yy[6] += alpha * xx[6]
		yy[7] += alpha * xx[7]
		yy[8] += alpha * xx[8]
		yy[9] += alpha * xx[9]
		yy[10] += alpha * xx[10]
		yy[11] += alpha * xx[11]
		yy[12] += alpha * xx[12]
		yy[13] += alpha * xx[13]
		yy[14] += alpha * xx[14]
		yy[15] += alpha * xx[15]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

func axpyScalar(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// scaleVec and scaleScalar multiply every element of x by alpha in place.
func scaleVec(alpha float32, x []float32) {
	n := len(x)
	i := 0
	for ; i+Width <= n; i += Width {
		xx := x[i : i+Width : i+Width]
		for k := 0; k < Width; k++ {
			xx[k] *= alpha
		}
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

func scaleScalar(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// addVec and addScalar compute y += x element-wise (len(y) >= len(x)).
func addVec(x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+Width <= n; i += Width {
		xx := x[i : i+Width : i+Width]
		yy := y[i : i+Width : i+Width]
		for k := 0; k < Width; k++ {
			yy[k] += xx[k]
		}
	}
	for ; i < n; i++ {
		y[i] += x[i]
	}
}

func addScalar(x, y []float32) {
	for i := range x {
		y[i] += x[i]
	}
}

// Zero clears x.
func Zero(x []float32) {
	clear(x)
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float32) float32 {
	if len(x) == 0 {
		panic("simd: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// argMaxScalar and argMaxVec return the index of the maximum element of a
// non-empty x, breaking ties toward the lowest index. The vector form scans
// 16-lane blocks keeping per-lane maxima and resolves the winning lane at
// the end. DWTA no longer calls them (its bins are resolved across lanes by
// GatherArgMax) and no library code does: they and the Kernels.ArgMax
// entries stay only because the frozen benchmark probe simd.argmax_ns calls
// them, and go when benchmark/ is next thawed (ROADMAP item 1(b)).
func argMaxScalar(x []float32) int {
	best := 0
	bv := x[0]
	for i := 1; i < len(x); i++ {
		if x[i] > bv {
			bv = x[i]
			best = i
		}
	}
	return best
}

func argMaxVec(x []float32) int {
	n := len(x)
	if n < Width {
		return argMaxScalar(x)
	}
	// Per-lane running maxima and their indices, then a horizontal resolve.
	var lm [Width]float32
	var li [Width]int
	xx := x[0:Width:Width]
	for k := 0; k < Width; k++ {
		lm[k] = xx[k]
		li[k] = k
	}
	i := Width
	for ; i+Width <= n; i += Width {
		blk := x[i : i+Width : i+Width]
		for k := 0; k < Width; k++ {
			if blk[k] > lm[k] {
				lm[k] = blk[k]
				li[k] = i + k
			}
		}
	}
	best := li[0]
	bv := lm[0]
	for k := 1; k < Width; k++ {
		if lm[k] > bv || (lm[k] == bv && li[k] < best) {
			bv = lm[k]
			best = li[k]
		}
	}
	for ; i < n; i++ {
		if x[i] > bv {
			bv = x[i]
			best = i
		}
	}
	return best
}
