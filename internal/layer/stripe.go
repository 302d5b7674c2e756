package layer

import "github.com/slide-cpu/slide/internal/simd"

// Stripe-major output walks. A HOGWILD worker's stripe selects each active
// output row many times over — about eleven times per 128 samples on
// text8-s — and the per-sample walks (ForwardActive, AccumulateActive)
// reload the row and read and write its gradient at every selection. No
// weight changes inside a batch, so the stripe can be walked the other way
// round: transpose its active lists into row → (sample, slot) lists with one
// counting sort (StripeIndex.Build), then visit every selected row once, the
// row as the dense operand and the stripe's activations as the listed
// vectors. See DESIGN.md "Stripe-major output walks".

// StripeIndex is the row-major transpose of one stripe's active lists: for
// every output row, the selections that chose it, samples ascending and
// slots ascending within a sample. It holds its walk scratch too; one index
// per worker, reused from stripe to stripe.
type StripeIndex struct {
	// start: row r's selections are entries start[r] … start[r+1]-1.
	start []int32
	// Per entry: the selecting sample, and the selection's position in the
	// stripe's flat active list (where its logit and gradient live).
	sample, pos []int32
	// bias holds, per sample, the bias of the row being walked: DotManyBias's
	// bias operand, so a logit is the same dot + bias[row] ForwardActive adds.
	bias []float32
	// buf holds one row's logits or gradients contiguously (the longest
	// row's entries).
	buf []float32
}

// Build transposes a stripe of len(offs)-1 samples over out rows — sample
// k's active ids are active[offs[k]:offs[k+1]] — and reports whether the
// stripe selects each row it touches at least minReuse times on average.
// Only then is the transpose placed and the index ready for the walks;
// otherwise the per-sample walks are the cheaper ones, and Build has cost
// one counting pass. An id outside [0, out) panics as ForwardActive's would.
func (x *StripeIndex) Build(out int, offs, active []int32, minReuse int) bool {
	x.start = grow(x.start, out+1)
	clear(x.start)
	count := x.start[:out]
	touched, longest := 0, int32(0)
	for _, id := range active {
		c := count[id] + 1
		if c == 1 {
			touched++
		}
		count[id] = c
		longest = max(longest, c)
	}
	if touched == 0 || len(active) < minReuse*touched {
		return false
	}
	// Inclusive prefix sums leave start[r] at the end of row r; placing the
	// selections backwards moves it down to the row's beginning, and keeps
	// every row's entries in ascending (sample, slot) order.
	var sum int32
	for r, c := range count {
		sum += c
		count[r] = sum
	}
	x.start[out] = sum
	x.sample, x.pos = grow(x.sample, len(active)), grow(x.pos, len(active))
	for k := len(offs) - 2; k >= 0; k-- {
		for p := offs[k+1] - 1; p >= offs[k]; p-- {
			e := count[active[p]] - 1
			count[active[p]] = e
			x.sample[e], x.pos[e] = int32(k), p
		}
	}
	x.bias = grow(x.bias, len(offs)-1)
	x.buf = grow(x.buf, int(longest))
	return true
}

// row returns the i-th row of a walk that starts at row first and wraps
// around, with its entries' bounds.
func (x *StripeIndex) row(i, first int) (r int, lo, hi int32) {
	out := len(x.start) - 1
	if r = first + i; r >= out {
		r -= out
	}
	return r, x.start[r], x.start[r+1]
}

// ForwardStripe is ForwardActive for every sample of the stripe x was built
// from, row-major: hs[k] is sample k's activation, and logits[p] receives the
// logit of the selection at flat position p. Each selected row is one
// DotManyBias call with the row held as the dense operand and the activations
// of the samples that chose it streamed past; every logit is bit-identical to
// ForwardActive's, because a dot product's products commute and its
// accumulation order depends only on the column. The walk starts at row first
// and wraps around, so that concurrent workers start apart. A bfloat16 row
// is widened once per stripe.
func (l *RowLayer) ForwardStripe(ks *simd.Kernels, x *StripeIndex, hs [][]float32, logits []float32, first int) {
	wb := l.w.widening(1)
	for i := range len(x.start) - 1 {
		r, lo, hi := x.row(i, first)
		if lo == hi {
			continue
		}
		ids := x.sample[lo:hi]
		for _, s := range ids {
			x.bias[s] = l.bias[r]
		}
		out := x.buf[:hi-lo]
		ks.DotManyBias(hs, x.bias, ids, l.w.row(ks, r, wb), out)
		for j, p := range x.pos[lo:hi] {
			logits[p] = out[j]
		}
	}
	wb.release()
}

// AccumulateStripe is AccumulateActive for every sample of the stripe,
// row-major: each selected row is one AxpyTwoMany call with the roles swapped
// — the row and its gradient are the dense, register-resident operands, the
// samples that chose it the listed ones — which adds gz[p]·hs[sample] into the
// row's gradient and gz[p]·w[row] into the sample's input gradient
// dhs[sample], both from one load of the row. The gradient's contributions
// arrive in ascending sample order, the order the per-sample walks reach the
// row in, so the gradient, the bias gradient and the touched set come out
// bit-identical to AccumulateActive's. An input gradient gets the same terms
// in row-walk order instead of list order: rows ascending from first,
// wrapping, and a row a sample chose twice in slot order. A bfloat16 row is
// widened once per stripe.
func (l *RowLayer) AccumulateStripe(ks *simd.Kernels, x *StripeIndex, gz []float32, hs, dhs [][]float32, first int) {
	wb := l.w.widening(1)
	for i := range len(x.start) - 1 {
		r, lo, hi := x.row(i, first)
		if lo == hi {
			continue
		}
		g, gb := x.buf[:hi-lo], l.gbias[r]
		for j, p := range x.pos[lo:hi] {
			g[j] = gz[p]
			gb += gz[p]
		}
		ks.AxpyTwoMany(g, x.sample[lo:hi], l.w.row(ks, r, wb), dhs, hs, l.grad[r])
		l.gbias[r] = gb
		l.touched.mark(int32(r))
	}
	wb.release()
}

// grow returns buf with length n. It reallocates only when it has to grow,
// and then to at least twice the old capacity, so that an index whose
// stripes creep up in size settles after a few allocations.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}
