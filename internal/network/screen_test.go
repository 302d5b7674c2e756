package network

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// viewBytes renders vectors and a bias in SerializeView's wire form: the
// header words, each vector at its stored width, then the bias.
func viewBytes(hdr []uint32, prec layer.Precision, vecs [][]float32, bias []float32) *bytes.Buffer {
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, hdr)
	for _, v := range vecs {
		for _, x := range v {
			if prec == layer.BF16Both {
				_ = binary.Write(&b, binary.LittleEndian, bf16.FromFloat32(x).Bits())
			} else {
				_ = binary.Write(&b, binary.LittleEndian, x)
			}
		}
	}
	_ = binary.Write(&b, binary.LittleEndian, bias)
	return &b
}

// reweigh returns a snapshot predictor like p whose output layer holds rows
// and bias (at p's precision) and, when h is not nil, whose hidden layer
// answers the empty input with act(h): its bias is h, its columns zero.
func reweigh(t testing.TB, p *Predictor, h []float32, rows [][]float32, bias []float32) *Predictor {
	t.Helper()
	f := *p.fwd
	prec := f.cfg.Precision
	out, err := layer.ReadRowWeights(viewBytes([]uint32{uint32(f.lastDim), uint32(len(rows)), uint32(prec)}, prec, rows, bias),
		f.lastDim, len(rows), prec)
	if err != nil {
		t.Fatal(err)
	}
	f.output = out
	if h != nil {
		cfg := f.cfg
		cols := make([][]float32, cfg.InputDim)
		for j := range cols {
			cols[j] = make([]float32, len(h))
		}
		f.hidden, err = layer.ReadColWeights(viewBytes([]uint32{uint32(cfg.InputDim), uint32(len(h)), uint32(prec), uint32(cfg.HiddenActivation)}, prec, cols, h),
			cfg.InputDim, len(h), prec, cfg.HiddenActivation)
		if err != nil {
			t.Fatal(err)
		}
	}
	return newPredictor(&f, p.seed)
}

// screenNet is a snapshot of an untrained dense model of the given widths,
// ready for reweigh.
func screenNet(t testing.TB, prec layer.Precision, act layer.Activation, in, hidden, out int) *Predictor {
	t.Helper()
	n, err := New(&Config{
		InputDim: in, HiddenDim: hidden, OutputDim: out, NoSampling: true,
		Precision: prec, HiddenActivation: act, LR: 0.01, Workers: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n.Snapshot()
}

// outputRows copies p's output rows and bias out as float32.
func outputRows(p *Predictor) ([][]float32, []float32) {
	w := p.fwd.output
	rows := make([][]float32, w.Out)
	for i := range rows {
		rows[i] = slices.Clone(w.RowF32(i, make([]float32, w.In)))
	}
	return rows, slices.Clone(w.Bias())
}

// checkScreened ranks xs at each k through every ranking entry point of p
// and wants the labels the full walk ranks: TopK over Scores, which never
// screens.
func checkScreened(t *testing.T, tag string, p *Predictor, xs []sparse.Vector) {
	t.Helper()
	out := p.fwd.cfg.OutputDim
	scores := make([][]float32, len(xs))
	for i, x := range xs {
		scores[i] = make([]float32, out)
		p.Scores(x, scores[i])
	}
	for _, k := range []int{0, 1, 5, out, out + 1} {
		ks := make([]int, len(xs))
		for i := range ks {
			ks[i] = k
		}
		batchK, batch := p.PredictBatchK(xs, ks), p.PredictBatch(xs, k)
		for i, x := range xs {
			want := metrics.TopK(scores[i], k)
			for name, got := range map[string][]int32{"Predict": p.Predict(x, k), "PredictBatchK": batchK[i], "PredictBatch": batch[i]} {
				if !slices.Equal(got, want) {
					t.Fatalf("%s: k=%d sample %d: %s %v, full walk %v", tag, k, i, name, got, want)
				}
			}
		}
	}
	if p.scr == nil {
		t.Fatalf("%s: the ranking entry points built no screen", tag)
	}
}

// adversarial returns layers derived from rows and bias that stress the
// screen's cut: every row with a twin (exact ties across any boundary), all
// biases equal, and row norms spread over 2¹² (radii far apart).
func adversarial(rows [][]float32, bias []float32) map[string]func() ([][]float32, []float32) {
	clone := func() ([][]float32, []float32) {
		r := make([][]float32, len(rows))
		for i := range r {
			r[i] = slices.Clone(rows[i])
		}
		return r, slices.Clone(bias)
	}
	return map[string]func() ([][]float32, []float32){
		"trained": clone,
		"twins": func() ([][]float32, []float32) {
			r, b := clone()
			for i := 1; i < len(r); i += 2 {
				r[i], b[i] = r[i-1], b[i-1]
			}
			return r, b
		},
		"equal-bias": func() ([][]float32, []float32) {
			r, b := clone()
			for i := range b {
				b[i] = 0.25
			}
			return r, b
		},
		"norms": func() ([][]float32, []float32) {
			r, b := clone()
			for i := range r {
				s := float32(math.Ldexp(1, 2*(i%7)-6))
				for j := range r[i] {
					r[i][j] *= s
				}
				b[i] *= s
			}
			return r, b
		},
	}
}

// TestScreenedRankMatchesWalk holds the screened ranking to the full walk's
// labels — every entry point, k ∈ {0, 1, 5, Out, Out+1}, FP32, BF16Act and
// BF16Both, ReLU and linear hidden layers — on trained layers and on layers
// built to defeat the bound: twins, equal biases, spread norms, an all-zero
// activation, quantization residuals aligned with a row (each row's error
// reaches its radius, so the scan's 2E margin is what keeps the winner), and
// long exactly quantized rows whose f32 sums round (on the scalar tier,
// which accumulates deep enough, the f32 term is what keeps the winner).
func TestScreenedRankMatchesWalk(t *testing.T) {
	for _, prec := range []layer.Precision{layer.FP32, layer.BF16Act, layer.BF16Both} {
		for _, act := range []layer.Activation{layer.ReLU, layer.Linear} {
			tag := prec.String() + "/" + act.String()
			t.Run(tag, func(t *testing.T) {
				p := newPlanted(80, 300, 6, 17)
				n, err := New(&Config{
					InputDim: 80, HiddenDim: 32, OutputDim: 300, Hash: DWTA, K: 2, L: 8, BucketCap: 32,
					MinActive: 16, LR: 0.01, Workers: 1, Precision: prec, HiddenActivation: act, Seed: 17,
				})
				if err != nil {
					t.Fatal(err)
				}
				trainN(t, n, p, 30, 64)
				snap := n.Snapshot()
				b := p.batch(40)
				xs := []sparse.Vector{{}}
				for i := range b.Len() {
					xs = append(xs, b.Sample(i))
				}
				rows, bias := outputRows(snap)
				for name, layerOf := range adversarial(rows, bias) {
					r, bs := layerOf()
					checkScreened(t, name, reweigh(t, snap, nil, r, bs), xs)
				}
				// The trained layer itself prunes: fewer rows refined than walked.
				pr := reweigh(t, snap, nil, rows, bias)
				pr.PredictBatchK(xs[1:], slices.Repeat([]int{5}, len(xs)-1))
				if q, r := pr.ScreenStats(); q != uint64(len(xs)-1) || r >= q*300/2 {
					t.Errorf("trained layer: %d rows refined over %d queries of 300 rows", r, q)
				}
				// Evaluate ranks through the screen too.
				want := 0.0
				scores := make([]float32, 300)
				for i := range b.Len() {
					snap.Scores(b.Sample(i), scores)
					hits := 0
					for _, id := range metrics.TopK(scores, 5) {
						if slices.Contains(b.Labels(i), id) {
							hits++
						}
					}
					want += float64(hits) / 5
				}
				if got := snap.Evaluate(b, b.Len(), 5); got != want/float64(b.Len()) {
					t.Errorf("Evaluate %v, full walk %v", got, want/float64(b.Len()))
				}

				// An all-zero activation: every logit is its bias.
				base := screenNet(t, prec, act, 4, 32, 300)
				zero := make([]float32, 32)
				for name, layerOf := range adversarial(rows, bias) {
					r, bs := layerOf()
					checkScreened(t, "zero/"+name, reweigh(t, base, zero, r, bs), []sparse.Vector{{}})
				}
				checkScreened(t, "aligned", alignedResiduals(t, prec, act), []sparse.Vector{{}})
				checkScreened(t, "long", longExactRows(t, prec, act), []sparse.Vector{{}})
			})
		}
	}
}

// alignedResiduals builds h = (1, δ, …, δ), δ = 2⁻⁹ below half the
// activation scale, so that ĥ = (≈1, 0, …, 0) and h − ĥ = δ·(0, 1, …, 1).
// Row 0 is (0, −1, …) at bias 0: int8 score 0, logit −15δ. Row 1 is
// (0, 1, …) at bias −22.5δ: int8 score −22.5δ, logit −7.5δ — the top-1,
// although its int8 score sits 1.5 radii below row 0's, which the scan has
// already taken as the running best. The other rows are ±1 rows at bias −1.
func alignedResiduals(t testing.TB, prec layer.Precision, act layer.Activation) *Predictor {
	const n, delta = 16, 0x1p-9
	h := make([]float32, n)
	h[0] = 1
	for i := 1; i < n; i++ {
		h[i] = delta
	}
	rows, bias := make([][]float32, 40), make([]float32, 40)
	for r := range rows {
		rows[r] = make([]float32, n)
		for i := 1; i < n; i++ {
			rows[r][i] = float32(1 - 2*((r+i)%2))
		}
		bias[r] = -1
	}
	for i := 1; i < n; i++ {
		rows[0][i], rows[1][i] = -1, 1
	}
	bias[0], bias[1] = 0, -22.5*delta
	return reweigh(t, screenNet(t, prec, act, 1, n, len(rows)), h, rows, bias)
}

// longExactRows builds rows of 8,192 integers in [100, 127] against h = 127
// everywhere: both quantize exactly (scales 1), so the int8 score is the
// exact dot, while an f32 sum past 2²⁴ rounds. Where this tier's Dot rounds
// two rows' sums apart by more than 200 (the scalar tier, whose one
// accumulator runs deep), biases put the row the f32 walk ranks first
// further below the other in int8 than the radius without its f32 term.
func longExactRows(t testing.TB, prec layer.Precision, act layer.Activation) *Predictor {
	const n, out = 8192, 12
	rng := rand.New(rand.NewPCG(3, 4))
	h := make([]float32, n)
	for i := range h {
		h[i] = 127
	}
	rows, bias := make([][]float32, out), make([]float32, out)
	exact := make([]float64, out)
	for r := range rows {
		rows[r] = make([]float32, n)
		for i := range rows[r] {
			rows[r][i] = float32(100 + rng.IntN(28))
		}
		rows[r][0] = 127
		for _, v := range rows[r] {
			exact[r] += 127 * float64(v)
		}
	}
	p := reweigh(t, screenNet(t, prec, act, 1, n, out), h, rows, bias)
	f32 := make([]float32, out)
	p.Scores(sparse.Vector{}, f32)
	hi, lo := 0, 0 // the rows the f32 sum rounds most up and most down
	for r := range rows {
		if float64(f32[r])-exact[r] > float64(f32[hi])-exact[hi] {
			hi = r
		}
		if float64(f32[r])-exact[r] < float64(f32[lo])-exact[lo] {
			lo = r
		}
	}
	if gap := (float64(f32[hi]) - exact[hi]) - (float64(f32[lo]) - exact[lo]); gap > 200 {
		// exact[hi] + b_hi = exact[lo] − gap/2: hi wins in f32 by gap/2, and
		// every other row is far below both.
		for r := range bias {
			bias[r] = -1e6
		}
		bias[lo], bias[hi] = 0, float32(math.Round(exact[lo]-exact[hi]-gap/2))
	}
	return reweigh(t, p, nil, rows, bias)
}

// TestScreenCandidatesSkipGroups holds the scan, whose group maxima skip
// whole simd.MaxGroup-row groups, to the candidates' definition: the rows r
// with a_r + e_r ≥ T, T the k-th largest a_r − e_r. Every radius here is e
// (zero norms, slack e), so the cut is the running k-th best minus 2e. The
// layouts: random scores; a group whose maximum equals the cut exactly when
// the scan reaches it (strictly below it is skipped, equal is not); the
// top rows spread one per group, so that a cut set before the heap holds k
// skips one; and a partial last group holding the best row.
func TestScreenCandidatesSkipGroups(t *testing.T) {
	const g = simd.MaxGroup
	const n = 5*g + 17
	rng := rand.New(rand.NewPCG(71, 72))
	layouts := map[string][]float32{}
	random := make([]float32, n)
	for i := range random {
		random[i] = float32(rng.NormFloat64())
	}
	layouts["random"] = random
	equal := make([]float32, n)
	for i := range equal {
		equal[i] = -float32(i%g) - 1 // every group's maximum is −1, at its first row
	}
	equal[g+5] = 2 // group 1's maximum, reached before group 2 …
	equal[3*g] = 2 // … whose maximum, at its first row, equals it
	layouts["equal-max"] = equal
	spread := make([]float32, n)
	for i := range spread {
		spread[i] = -100 - float32(i)
	}
	for j := range n / g {
		spread[j*g+j] = float32(10 - j) // group j's best, below every earlier group's
	}
	layouts["spread"] = spread
	tail := slices.Clone(random)
	tail[n-1] = 50
	layouts["partial-last"] = tail

	s := &screen{rows: make([]rowNorms, n)}
	ws := &scratch{active: make([]int32, 0, n)}
	for name, a := range layouts {
		maxes := make([]float32, (n+g-1)/g)
		for j := range maxes {
			maxes[j] = slices.Max(a[j*g : min(j*g+g, n)])
		}
		for _, e := range []float64{0, 0.01, 0.5} {
			b := &sampleBound{e: e, slack: e, ok: true}
			for _, k := range []int{1, 2, 3, 5, g, g + 1, n - 1} {
				lows := make([]float64, n)
				for r, v := range a {
					lows[r] = float64(v) - e
				}
				slices.Sort(lows)
				cut := lows[n-k]
				var want []int32
				for r, v := range a {
					if float64(v)+e >= cut {
						want = append(want, int32(r))
					}
				}
				if got := s.candidates(b, a, maxes, k, ws); !slices.Equal(got, want) {
					t.Fatalf("%s e=%g k=%d: candidates %v, want %v", name, e, k, got, want)
				}
			}
		}
	}
}

// TestTileRowsOnGroups: the row tiles of a pass cover the output rows in
// order, without overlap, and each starts on a simd.MaxGroup boundary and
// ends on one or at the last row, so a screened walk's maxima are whole.
func TestTileRowsOnGroups(t *testing.T) {
	for _, out := range []int{1, 63, 64, 65, 300, 6701, 13401} {
		for tiles := 1; tiles <= 5; tiles++ {
			next := 0
			for i := range tiles {
				lo, hi := tileRows(i, tiles, out)
				if lo != next || hi < lo || lo%simd.MaxGroup != 0 && lo != out || hi%simd.MaxGroup != 0 && hi != out {
					t.Fatalf("out=%d tiles=%d: tile %d is [%d, %d) after %d", out, tiles, i, lo, hi, next)
				}
				next = hi
			}
			if next != out {
				t.Fatalf("out=%d tiles=%d: tiles end at %d", out, tiles, next)
			}
		}
	}
}

// TestScreenBuiltOnce: concurrent first callers on a fresh snapshot build
// its screen once, and Scores, the live predictor and a quantized one never
// build one.
func TestScreenBuiltOnce(t *testing.T) {
	n, p := snapNet(t, 57, nil)
	xs := []sparse.Vector{p.batch(1).Sample(0)}
	before := screenBuilds.Load()
	n.Predict(xs[0], 3)
	n.Evaluate(p.batch(8), 8, 1)
	snap := n.Snapshot()
	snap.Scores(xs[0], make([]float32, n.Config().OutputDim))
	q, err := snap.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	q.Predict(xs[0], 3)
	q.PredictBatchK(xs, []int{3})
	if got := screenBuilds.Load(); got != before || snap.scr != nil || q.scr != nil || n.live.scr != nil {
		t.Fatalf("a screen was built by Scores, the live or a quantized predictor (%d builds)", got-before)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				snap.Predict(xs[0], 3)
			} else {
				snap.PredictBatchK(xs, []int{3})
			}
		}()
	}
	wg.Wait()
	if got := screenBuilds.Load() - before; got != 1 || snap.scr == nil {
		t.Fatalf("8 concurrent first callers built %d screens", got)
	}
}

// FuzzScreenedRank holds the screened ranking to the full walk on random
// layers and activations at the active tier: flags pick the precision, the
// hidden activation and the adversaries of TestScreenedRankMatchesWalk
// (twins, equal biases, a zero activation, spread norms, and in place of the
// random layer aligned residuals or, at odd shapes, long exact rows).
func FuzzScreenedRank(f *testing.F) {
	for _, s := range [][4]uint64{{1, 40, 0, 5}, {2, 9, 1<<3 | 1<<4, 1}, {3, 200, 1 << 5, 5}, {4, 16, 1 << 6, 1}, {5, 76, 1<<7 | 2, 1}, {6, 3, 1<<6 | 1<<2, 2}, {7, 1, 1 << 7, 1}} {
		f.Add(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, flags, k uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		prec, act := layer.Precision(flags%3), layer.Activation(flags>>2&1)
		in, out := 1+int(shape%24), 2+int(shape)
		h := make([]float32, in)
		for i := range h {
			h[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.IntN(9)-4))
		}
		rows, bias := make([][]float32, out), make([]float32, out)
		for r := range rows {
			rows[r] = make([]float32, in)
			for i := range rows[r] {
				rows[r][i] = float32(rng.NormFloat64())
			}
			bias[r] = float32(rng.NormFloat64())
		}
		if flags&(1<<3) != 0 {
			for i := 1; i < out; i += 2 {
				rows[i], bias[i] = rows[i-1], bias[i-1]
			}
		}
		if flags&(1<<4) != 0 {
			for i := range bias {
				bias[i] = bias[0]
			}
		}
		if flags&(1<<5) != 0 {
			clear(h)
		}
		if flags&(1<<6) != 0 {
			for r := range rows {
				s := float32(math.Ldexp(1, rng.IntN(25)-12))
				for i := range rows[r] {
					rows[r][i] *= s
				}
				bias[r] *= s
			}
		}
		p := reweigh(t, screenNet(t, prec, act, 1, in, out), h, rows, bias)
		if flags&(1<<7) != 0 {
			if p = alignedResiduals(t, prec, act); shape%2 == 1 {
				p = longExactRows(t, prec, act)
			}
			out = p.fwd.cfg.OutputDim
		}
		x := sparse.Vector{}
		scores := make([]float32, out)
		p.Scores(x, scores)
		kk := int(k) % (out + 2)
		want := metrics.TopK(scores, kk)
		if got := p.Predict(x, kk); !slices.Equal(got, want) {
			t.Fatalf("k=%d: screened %v, full walk %v", kk, got, want)
		}
		if got := p.PredictBatchK([]sparse.Vector{x, x}, []int{kk, 1}); !slices.Equal(got[0], want) || !slices.Equal(got[1], metrics.TopK(scores, 1)) {
			t.Fatalf("k=%d: screened batch %v, full walk %v", kk, got, want)
		}
	})
}
