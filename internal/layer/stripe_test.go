package layer

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
)

// flatten lays a stripe's active lists end to end, as a worker keeps them:
// sample k's ids are active[offs[k]:offs[k+1]].
func flatten(lists [][]int32) (offs, active []int32) {
	offs = []int32{0}
	for _, l := range lists {
		active = append(active, l...)
		offs = append(offs, int32(len(active)))
	}
	return offs, active
}

// checkStripeWalks runs one stripe through the row-major walks on one layer
// — ForwardStripe, then AccumulateStripe — and through ForwardActive and
// AccumulateActive sample by sample on a twin, twice over (so the second pass
// starts from non-zero gradients), and requires every logit, gradient row,
// bias gradient and touched row to be the same bits. The input gradients sum
// their terms in another order, so checkStripeDh checks them.
func checkStripeWalks(t *testing.T, name string, ks *simd.Kernels, o Options, in, out int, lists [][]int32, first int, rng *rand.Rand) {
	t.Helper()
	walk, loop := NewRowLayer(in, out, o), NewRowLayer(in, out, o)
	for i := range walk.bias {
		walk.bias[i] = float32(rng.NormFloat64())
		loop.bias[i] = walk.bias[i]
	}
	hs := make([][]float32, len(lists))
	for k := range hs {
		hs[k] = randVec(rng, in)
		if o.Precision != FP32 {
			bf16.RoundSlice(hs[k]) // the BF16 modes take h already rounded
		}
	}
	offs, active := flatten(lists)
	var x StripeIndex
	for pass := 0; pass < 2; pass++ {
		if !x.Build(out, offs, active, 0) {
			if len(active) != 0 {
				t.Fatalf("%s: Build refused a stripe of %d selections at reuse 0", name, len(active))
			}
			continue
		}
		logits := make([]float32, len(active))
		walk.ForwardStripe(ks, &x, hs, logits, first)
		gz := randVec(rng, len(active))
		dhs := make([][]float32, len(lists))
		for k := range dhs {
			dhs[k] = make([]float32, in)
		}
		walk.AccumulateStripe(ks, &x, gz, hs, dhs, first)
		for k, ids := range lists {
			lo, hi := offs[k], offs[k+1]
			want := make([]float32, len(ids))
			loop.ForwardActive(ks, ids, hs[k], nil, want)
			sameBits(t, fmt.Sprintf("%s logits of sample %d", name, k), logits[lo:hi], want)

			dhLoop := make([]float32, in)
			loop.AccumulateActive(ks, ids, gz[lo:hi], hs[k], dhLoop)
			checkStripeDh(t, fmt.Sprintf("%s dh of sample %d", name, k), ks, walk, ids, gz[lo:hi], first, dhs[k], dhLoop)
		}
	}
	for i := range loop.grad {
		sameBits(t, fmt.Sprintf("%s grad[%d]", name, i), walk.grad[i], loop.grad[i])
	}
	sameBits(t, name+" gbias", walk.gbias, loop.gbias)
	if got, want := fmt.Sprint(walk.touched.ids()), fmt.Sprint(loop.touched.ids()); got != want {
		t.Fatalf("%s touched %s, want %s", name, got, want)
	}
}

// checkStripeDh checks one sample's input gradient from AccumulateStripe, dh,
// against two references. It must be bit-identical to applying Axpy(g, w[r])
// per selection in the walk's order — rows ascending from first, wrapping,
// and a row the sample chose twice in slot order. And it must agree with the
// list-order dhLoop of AccumulateActive: both lie within 1e-5·Σ|g·w| of the
// float64 sum of the same terms, per element.
func checkStripeDh(t *testing.T, name string, ks *simd.Kernels, l *RowLayer, ids []int32, gz []float32, first int, dh, dhLoop []float32) {
	t.Helper()
	out := l.Out
	rows := make([][]float32, out)
	for r := range rows {
		rows[r] = l.RowF32(r, make([]float32, l.In))
	}
	want := make([]float32, len(dh))
	for i := range out {
		r := (first + i) % out
		for j, id := range ids {
			if int(id) == r {
				ks.Axpy(gz[j], rows[r], want)
			}
		}
	}
	sameBits(t, name+" (row order)", dh, want)
	for c := range dh {
		var sum, abs float64
		for j, id := range ids {
			term := float64(gz[j]) * float64(rows[id][c])
			sum += term
			abs += math.Abs(term)
		}
		for _, got := range []float32{dh[c], dhLoop[c]} {
			if math.Abs(float64(got)-sum) > 1e-5*abs {
				t.Fatalf("%s[%d]: row order %g, list order %g, float64 sum %g (Σ|g·w| %g)", name, c, dh[c], dhLoop[c], sum, abs)
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// randLists draws m active lists of up to maxLen distinct ids in [0, out),
// as the sampler hands them over; every third list may repeat an id, which
// the walks must also take in list order.
func randLists(rng *rand.Rand, m, out, maxLen int) [][]int32 {
	lists := make([][]int32, m)
	for k := range lists {
		seen := map[int32]bool{}
		for range rng.IntN(maxLen + 1) {
			id := int32(rng.IntN(out))
			if !seen[id] || k%3 == 2 {
				seen[id] = true
				lists[k] = append(lists[k], id)
			}
		}
	}
	return lists
}

// TestStripeWalksBitIdenticalToPerSample: the row-major walks over a stripe
// equal the per-sample walks over its samples, on every tier and placement,
// at hidden widths on both sides of every register block (200 is text8-s's,
// whose last columns the AVX2 wrappers finish in Go), for ordinary stripes,
// stripes with empty samples, a single sample, a row every sample chose, ids
// a sample chose twice, a stripe of nothing, and walks starting at every row.
func TestStripeWalksBitIdenticalToPerSample(t *testing.T) {
	const out = 37
	rng := rand.New(rand.NewPCG(71, 72))
	every := func() [][]int32 {
		lists := randLists(rng, 12, out, 6)
		for k := range lists {
			lists[k] = append([]int32{5}, lists[k]...)
		}
		return lists
	}
	stripes := map[string]func() [][]int32{
		"random":      func() [][]int32 { return randLists(rng, 9, out, 20) },
		"empties":     func() [][]int32 { return [][]int32{nil, {3, 7}, nil, {7}, nil} },
		"single":      func() [][]int32 { return randLists(rng, 1, out, 30) },
		"every":       every,
		"nothing":     func() [][]int32 { return make([][]int32, 4) },
		"last-row":    func() [][]int32 { return [][]int32{{out - 1, 0}, {0, out - 1}} },
		"all-samples": func() [][]int32 { return [][]int32{{2}, {2}, {2}, {2}} },
		"repeats":     func() [][]int32 { return [][]int32{{4, 9, 4}, {9}, {out - 1, 4, out - 1, 4}} },
	}
	for _, m := range simd.AvailableModes() {
		for _, place := range []Placement{Contiguous, Scattered} {
			o := Options{Precision: FP32, Placement: place, Seed: 13}
			for _, in := range []int{1, 15, 16, 17, 128, 200} {
				for sn, stripe := range stripes {
					for first := range out {
						name := fmt.Sprintf("%v/%v/in%d/%s/first%d", m, place, in, sn, first)
						checkStripeWalks(t, name, simd.ForMode(m), o, in, out, stripe(), first, rng)
					}
				}
			}
		}
	}
}

// TestStripeBuildCrossover: Build places the transpose exactly when the
// stripe selects each touched row at least minReuse times on average.
func TestStripeBuildCrossover(t *testing.T) {
	// 8 selections of 3 rows: reuse 2⅔.
	offs, active := flatten([][]int32{{0, 1}, {0, 1, 2}, {0, 1, 2}})
	var x StripeIndex
	for minReuse, want := range []bool{true, true, true, false, false} {
		if got := x.Build(4, offs, active, minReuse); got != want {
			t.Errorf("Build at minReuse %d = %v, want %v", minReuse, got, want)
		}
	}
	if x.Build(4, []int32{0, 0, 0}, nil, 0) {
		t.Error("Build placed a stripe that selects nothing")
	}
}

// panicOf returns what f panics with, formatted, or "" if it returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestStripeWalksPanicAsPerSample: an id outside the layer panics on the
// row-major path with the panic the per-sample path raised — Go's index error
// for the row — on every tier, in Build, where ForwardActive raised it.
func TestStripeWalksPanicAsPerSample(t *testing.T) {
	const in, out = 16, 9
	rng := rand.New(rand.NewPCG(73, 74))
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		l := NewRowLayer(in, out, Options{Seed: 3})
		h := randVec(rng, in)
		for _, bad := range []int32{out, out + 7, -1} {
			ids := []int32{1, bad, 2}
			offs, active := flatten([][]int32{{0}, ids})
			var x StripeIndex
			got := panicOf(func() { x.Build(out, offs, active, 0) })
			want := panicOf(func() { l.ForwardActive(ks, ids, h, nil, make([]float32, len(ids))) })
			if got == "" || got != want {
				t.Errorf("%v id %d: Build panics with %q, ForwardActive with %q", m, bad, got, want)
			}
		}
	}
}

// FuzzStripeWalks drives checkStripeWalks with random stripe shapes on every
// tier, over float32 and bfloat16 rows: hidden width, output rows, sample
// count, list length and the walk's first row.
func FuzzStripeWalks(f *testing.F) {
	f.Add(uint64(1), 16, 20, 8, 6, 0)
	f.Add(uint64(2), 1, 1, 1, 1, 0)
	f.Add(uint64(3), 200, 64, 32, 24, 31)
	f.Add(uint64(4), 17, 5, 40, 5, 4)
	f.Add(uint64(5), 128, 300, 3, 0, 100)
	f.Add(uint64(6), 15, 8, 0, 4, 0)
	f.Fuzz(func(t *testing.T, seed uint64, in, out, m, maxLen, first int) {
		if in < 1 || in > 300 || out < 1 || out > 400 || m < 0 || m > 48 || maxLen < 0 || maxLen > 64 || first < 0 || first >= out {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 75))
		lists := randLists(rng, m, out, maxLen)
		for _, mode := range simd.AvailableModes() {
			for _, prec := range []Precision{FP32, BF16Both} {
				name := fmt.Sprintf("%v/%v/in%d/out%d/m%d", mode, prec, in, out, m)
				checkStripeWalks(t, name, simd.ForMode(mode), Options{Precision: prec, Seed: seed}, in, out, lists, first, rng)
			}
		}
	})
}
