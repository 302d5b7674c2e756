package network

import (
	"math"
	"sync/atomic"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/quant"
	"github.com/slide-cpu/slide/internal/simd"
)

// A screen is the int8 rendering of an immutable f32 or BF16 output layer
// that the layer's ranking entry points rank through (DESIGN.md "Screened
// exact ranking"). The int8 walk scores every row of a sample, a_r; a radius
// e_r bounds, rigorously, the gap between a_r and the f32 logit F_r the full
// walk would serve; and only the rows that can still reach the top k are
// scored in f32. The labels are those of the full walk, exactly:
//
//	|F_r − a_r| ≤ ‖w−ŵ‖‖h‖ + ‖ŵ‖‖h−ĥ‖          quantization: w·h − ŵ·ĥ
//	            + γ_{n+1}(‖w‖‖h‖ + |b|)         the f32 Dot and the bias add
//	            + γ_4‖ŵ‖‖ĥ‖ + u|b|              the dequant's four roundings
//	            + η                             underflow
//
// with u = 2⁻²⁴, γ_k = ku/(1−ku), n the row length, ŵ = Scale(r)·Row8(r)
// and ĥ = sa·(qa − zp). Norms are computed in float64 and rounded up.
type screen struct {
	q    *quant.RowQ
	rows []rowNorms
	max  rowNorms // the largest of each column of rows
	// d is |b|'s coefficient, γ_{n+1} + u; g4 and gn are γ_4 and γ_{n+1};
	// eta bounds the underflow of one logit's roundings, both sides.
	d, g4, gn, eta float64
}

// rowNorms is one row's part of the radius: ‖w−ŵ‖, ‖ŵ‖, ‖w‖ and |b|.
type rowNorms struct{ dq, qn, wn, ab float64 }

// sampleBound is one sample's part of the radius: e_r is
// (a·dq + b·qn + c·wn + d·ab)(1+2⁻³⁰) + slack over row r's norms.
type sampleBound struct {
	a, b, c float64
	// slack is η plus σ, a margin that dwarfs every float64 rounding the
	// scan makes on values of this sample's magnitude.
	slack float64
	// e exceeds every row's radius by at least σ: the scan collects the rows
	// whose int8 score is within 2e of the running k-th best.
	e float64
	// ok is false when the sample must take the full f32 walk: a non-finite
	// activation, or logits large enough to leave the bound's float range.
	ok bool
}

// maxScreened bounds a screened sample's logit magnitudes, far below
// float32's range so that neither walk can overflow (norm products above
// it take the full walk).
const maxScreened = 0x1p100

// inflate is the relative margin every norm and radius is rounded up by:
// far above float64's accumulated rounding on rows of up to quant.MaxDotLen.
const inflate = 1 + 0x1p-30

// screenBuilds counts the screens built in this process.
var screenBuilds atomic.Uint64

// newScreen packs w's rows with quant.QuantizeRowWeights and records each
// row's norms. It returns nil when the rows cannot be quantized, which
// leaves the predictor on the full walk.
func newScreen(w *layer.RowWeights) *screen {
	q, err := quant.QuantizeRowWeights(w, 8)
	if err != nil {
		return nil
	}
	screenBuilds.Add(1)
	const u = 0x1p-24
	gamma := func(k int) float64 { return float64(k) * u / (1 - float64(k)*u) }
	s := &screen{
		q: q, rows: make([]rowNorms, w.Out),
		g4: gamma(4), gn: gamma(w.In + 1), d: gamma(w.In+1) + u,
		// Each of the n products of the f32 Dot, the dequant's scale product
		// (times |v| ≤ 127²n) and its final product may underflow by up to
		// 2⁻¹⁵⁰: (n + 127²n + 1)·2⁻¹⁵⁰ < (n+1)·2⁻¹³⁰.
		eta: float64(w.In+1) * 0x1p-130,
	}
	buf := make([]float32, w.In)
	bias := w.Bias()
	for r := range s.rows {
		row, codes, sw := w.RowF32(r, buf), q.Row8(int32(r)), float64(q.Scale(int32(r)))
		var dd, qq, ww float64
		for i, v := range row {
			x, y := float64(v), sw*float64(codes[i]) // y is ŵ_i, exact in float64
			dd += (x - y) * (x - y)
			qq += y * y
			ww += x * x
		}
		n := rowNorms{dq: norm(dd), qn: norm(qq), wn: norm(ww), ab: math.Abs(float64(bias[r]))}
		s.rows[r] = n
		s.max = rowNorms{max(s.max.dq, n.dq), max(s.max.qn, n.qn), max(s.max.wn, n.wn), max(s.max.ab, n.ab)}
	}
	return s
}

// norm is the square root of a float64 sum of squares, rounded up.
func norm(sq float64) float64 { return math.Sqrt(sq) * inflate }

// bound computes a sample's part of the radius from its activation h and
// the u7 codes QuantizeActs made of it.
func (s *screen) bound(h []float32, qa []uint8, sa float32, zp int32) sampleBound {
	var hh, qq, dd float64
	for i, v := range h {
		x, y := float64(v), float64(sa)*float64(int32(qa[i])-zp) // y is ĥ_i, exact
		hh += x * x
		qq += y * y
		dd += (x - y) * (x - y)
	}
	hn, hq, dh := norm(hh), norm(qq), norm(dd)
	b := sampleBound{a: hn, b: dh + s.g4*hq, c: s.gn * hn}
	e0 := b.a*s.max.dq + b.b*s.max.qn + b.c*s.max.wn + s.d*s.max.ab
	// m is at least a quarter of every magnitude the scan meets; a NaN or an
	// Inf fails the test too.
	m := s.max.wn*hn + s.max.qn*hq + s.max.ab + e0
	if !(m < maxScreened) {
		return sampleBound{}
	}
	b.slack = m*0x1p-40 + s.eta
	b.e = e0*inflate + 2*b.slack
	b.ok = true
	return b
}

// radius is row r's e_r under sample bound b.
func (s *screen) radius(b *sampleBound, r int32) float64 {
	n := &s.rows[r]
	return (b.a*n.dq+b.b*n.qn+b.c*n.wn+s.d*n.ab)*inflate + b.slack
}

// rank returns the top-k rows of one sample, highest f32 logit first, in
// ws's pooled storage, and how many rows it scored in f32. a holds the int8
// walk's scores of the sample, maxes their simd.MaxGroup maxima, and h its
// activation. Rows are refined with out.ForwardActive, which returns the
// walk's bits, and ranked in ascending id order, so ties still break toward
// the lower id. A sample the bound
// cannot screen, or a k that takes every row, refines every row.
func (s *screen) rank(ks *simd.Kernels, out *layer.RowWeights, b *sampleBound, h, a, maxes []float32, k int, ws *scratch) ([]int32, int) {
	if k <= 0 {
		return ws.top[:0], 0
	}
	cand := layer.Iota(len(a))
	if b.ok && k < len(a) {
		cand = s.candidates(b, a, maxes, k, ws)
	}
	logits := ws.logits[:len(cand)]
	out.ForwardActive(ks, cand, h, nil, logits)
	if n := min(k, len(cand)); cap(ws.top) < n {
		ws.top = make([]int32, 0, n)
	}
	top := metrics.TopKInto(logits, k, ws.top[:0])
	for i, pos := range top {
		top[i] = cand[pos]
	}
	return top, len(cand)
}

// candidates returns, ascending in ws.active, the rows r with
// a_r + e_r ≥ T, T the k-th largest a_r − e_r (0 < k < len(a)). Every other
// row's logit is strictly below at least k candidates' logits.
//
// One scan finds them: it keeps θ, the k-th best a so far, and collects
// the rows with a ≥ θ − 2E, E = b.e ≥ every e_r + σ; e_r is computed only
// for those. A row it skips has a + e < θ_final − E ≤ T: the k rows of
// largest a are all collected, each with a − e ≥ θ_final − E.
//
// maxes[j] is the largest a of rows [64j, 64j+64) (simd.MaxGroup of them).
// A group whose maximum is below the running cut is skipped whole: each of
// its rows would have been skipped, being below a cut that only rises, and
// a skipped row leaves the heap alone. So the rows collected are the same.
// Until the heap holds k the cut is −∞, and a NaN maximum is below nothing.
func (s *screen) candidates(b *sampleBound, a, maxes []float32, k int, ws *scratch) []int32 {
	ids, best := ws.active[:0], ws.best[:0]
	cut := float32(math.Inf(-1))
	for lo := 0; lo < len(a); lo += simd.MaxGroup {
		if maxes[lo/simd.MaxGroup] < cut {
			continue
		}
		for i, v := range a[lo:min(lo+simd.MaxGroup, len(a))] {
			if v < cut {
				continue
			}
			ids = append(ids, int32(lo+i))
			if len(best) < k || v > best[0] {
				if best = keepBest(best, k, v); len(best) == k {
					cut = down32(float64(best[0]) - 2*b.e)
				}
			}
		}
	}
	ws.best = best
	if cap(ws.hi) < len(ids) {
		ws.hi = make([]float64, len(ids))
	}
	hi, lows := ws.hi[:len(ids)], ws.lows[:0]
	for j, r := range ids {
		e, v := s.radius(b, r), float64(a[r])
		hi[j] = v + e
		lows = keepBest(lows, k, v-e)
	}
	ws.lows = lows
	keep := ids[:0]
	for j, r := range ids {
		if hi[j] >= lows[0] {
			keep = append(keep, r)
		}
	}
	return keep
}

// keepBest adds v to h, a min-heap of the at most k largest values added so
// far: once h holds k, h[0] is the k-th largest.
func keepBest[T float32 | float64](h []T, k int, v T) []T {
	j := len(h)
	if j < k {
		h = append(h, v)
		for j > 0 && h[(j-1)/2] > h[j] {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			j = (j - 1) / 2
		}
		return h
	}
	if !(v > h[0]) {
		return h
	}
	h[0] = v
	for j = 0; ; {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < h[j]) {
			break
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
	return h
}

// down32 rounds x to a float32 no larger than it.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}
