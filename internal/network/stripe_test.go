package network

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// text8Mini is the text8 miniature of TestTrainingBitsPinned: its stripes and
// shards select a touched output row about five times per batch.
var text8Mini = Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
	Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102}

// TestOutputWalksTrainAlike checks the row-major output walks by what they
// train, independently of any pinned hash and of the walk itself: the text8
// miniature trains 36 steps from the same seed and batches on HOGWILD at W=1
// and on the phase engine at S=1 and S=4, and the mean per-sample loss of
// the last 8 steps of every run must lie within lossBand of perSampleLoss —
// what the phase engine at S=1 read, on every tier, when it still walked the
// output layer sample by sample (ForwardActive, then Accumulate per
// selection). The row-major walks read 4.2078 on HOGWILD (0.29 % apart),
// 4.2200 on S=1 and 4.2153 on S=4; a row-major walk that left the input
// gradient at zero read 4.6776, 10.8 % apart.
func TestOutputWalksTrainAlike(t *testing.T) {
	const lossBand = 0.02 // relative: about seven times the measured spread
	perSampleLoss := map[simd.Mode]float64{simd.Scalar: 4.219969, simd.Vector: 4.219969, simd.AVX2: 4.219969, simd.AVX512: 4.219969}
	runs := []struct {
		name   string
		engine func(*Config)
	}{
		{"HOGWILD W=1", func(c *Config) { c.Workers = 1 }},
		{"phase engine S=1", func(c *Config) { c.Shards, c.Workers = 1, 2 }},
		{"phase engine S=4", func(c *Config) { c.Shards, c.Workers = 4, 2 }},
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		ref, ok := perSampleLoss[m]
		if !ok {
			t.Fatalf("no per-sample loss recorded for tier %v", m)
		}
		for _, r := range runs {
			c := text8Mini
			r.engine(&c)
			n, err := New(&c)
			if err != nil {
				t.Fatal(err)
			}
			p := newPlanted(c.InputDim, c.OutputDim, 1, 7)
			var tail float64
			for step := range 36 {
				st := n.TrainBatch(p.batch(32))
				if step >= 28 {
					tail += st.Loss / float64(st.Samples) / 8
				}
			}
			if d := math.Abs(tail-ref) / ref; !(d <= lossBand) {
				t.Errorf("%v: last-8-step mean loss %.4f on %s, %.4f per sample: %.1f %% apart, band %.0f %%",
					m, tail, r.name, ref, 100*d, 100*lossBand)
			}
		}
	}
}

// TestShardWalksAgreeOnOneBatch runs one shard's output pass over one batch
// on three identical phase-engine models, at every precision: through the
// shard's row-major walk, then ApplyAdam; sample by sample — ForwardActive,
// then Accumulate per selection in list order — then ApplyAdam; and through
// the row-major walk that steps each row inside it, as phase D does. The
// walks start at a row other than 0, so they wrap. The logits, the stepped
// output layer's bytes and the journaled rows must be bit-identical, the
// stepping walk must leave no row touched and the same ∇h bits as the walk
// it replaces, and every ∇h partial must lie within 1e-5·Σ|g·w| of its
// float64 sum — the bound HOGWILD's row-major input gradient is held to
// (layer's checkStripeDh). The gradients are read through an ADAM step with
// Beta1 = 0, whose first moment is the gradient itself.
func TestShardWalksAgreeOnOneBatch(t *testing.T) {
	const (
		rowMajor = iota
		perSample
		stepping
		walks
	)
	first := text8Mini.OutputDim / 3
	adam := simd.NewAdamParams(0.01, 0, 0.999, 1e-8, 1)
	defer simd.SetMode(simd.CurrentMode())
	for _, mode := range simd.AvailableModes() {
		simd.SetMode(mode)
		ks := simd.Active()
		for _, prec := range []layer.Precision{layer.FP32, layer.BF16Act, layer.BF16Both} {
			name := fmt.Sprintf("%v/%v", mode, prec)
			p := newPlanted(text8Mini.InputDim, text8Mini.OutputDim, 1, 9)
			batches := []sparse.Batch{p.batch(32), p.batch(32), p.batch(32), p.batch(48)}
			var logits [walks][]float32
			var dhs [walks][][]float32
			var state [walks][]byte
			var journal [walks][]int32
			var read *layer.RowWeights // the weights every pass reads
			var ss *shardScratch       // the per-sample pass's selection and gradients
			for w := range walks {
				c := text8Mini
				c.Shards, c.Workers, c.Precision = 1, 1, prec
				n, err := New(&c)
				if err != nil {
					t.Fatal(err)
				}
				// The last batch leaves its selection in the shard's stripe and
				// its activations in the phase scratch.
				for _, b := range batches {
					n.TrainBatch(b)
				}
				n.output.EnableJournal()
				n.output.DrainJournal()
				b := batches[len(batches)-1]
				sh := n.sh
				ss = sh.shards[0]
				B := b.Len()
				hs, dh := sh.lasts[:B], ss.dhPart[:B]
				for _, d := range dh {
					simd.Zero(d)
				}
				ss.plan(c.OutputDim)
				if w == perSample {
					for k := range B {
						lo, hi := ss.offs[k], ss.offs[k+1]
						n.output.ForwardActive(ks, ss.ids[lo:hi], hs[k], nil, ss.logits[lo:hi])
					}
				} else {
					ss.forward(ks, n.output, hs, first)
				}
				for i := range B {
					n.labelHead(ks, sh.parts, i, len(b.Labels(i)))
				}
				read = n.output.SnapshotWeights()
				switch w {
				case rowMajor:
					ss.backward(ks, n.output, hs, dh, first, nil)
				case perSample:
					for k := range B {
						for j := ss.offs[k]; j < ss.offs[k+1]; j++ {
							n.output.Accumulate(ks, ss.ids[j], ss.grads[j], hs[k], nil, dh[k])
						}
					}
				case stepping:
					step := adam
					ss.backward(ks, n.output, hs, dh, first, &step)
				}
				if touched := n.output.TouchedRows(); (touched == 0) != (w == stepping) {
					t.Fatalf("%s: walk %d left %d rows touched", name, w, touched)
				}
				if w != stepping {
					n.output.ApplyAdam(ks, adam, 1)
				}
				var buf bytes.Buffer
				if err := n.output.Serialize(&buf); err != nil {
					t.Fatal(err)
				}
				logits[w], dhs[w] = ss.logits, dh
				state[w], journal[w] = buf.Bytes(), n.output.DrainJournal()
			}
			for w := range walks {
				if !slices.Equal(logits[w], logits[rowMajor]) {
					t.Errorf("%s: walk %d's logits differ from the row-major walk's", name, w)
				}
				if !bytes.Equal(state[w], state[rowMajor]) {
					t.Errorf("%s: walk %d leaves other weights, biases or moments than the row-major walk and ApplyAdam", name, w)
				}
				if !slices.Equal(journal[w], journal[rowMajor]) {
					t.Errorf("%s: walk %d journaled rows %v, the row-major walk %v", name, w, journal[w], journal[rowMajor])
				}
			}
			if len(journal[rowMajor]) == 0 {
				t.Errorf("%s: no row journaled", name)
			}
			for k := range dhs[stepping] {
				if !slices.Equal(dhs[stepping][k], dhs[rowMajor][k]) {
					t.Fatalf("%s sample %d: the stepping walk's ∇h differs from the row-major walk's", name, k)
				}
			}
			// ∇h against the float64 sum.
			row := make([]float32, text8Mini.HiddenDim)
			for k := range len(ss.offs) - 1 {
				sum := make([]float64, text8Mini.HiddenDim)
				abs := make([]float64, text8Mini.HiddenDim)
				for j := ss.offs[k]; j < ss.offs[k+1]; j++ {
					w := read.RowF32(int(ss.ids[j]), row)
					for c, wc := range w {
						term := float64(ss.grads[j]) * float64(wc)
						sum[c] += term
						abs[c] += math.Abs(term)
					}
				}
				for c := range sum {
					for walk, dh := range dhs {
						if got := float64(dh[k][c]); math.Abs(got-sum[c]) > 1e-5*abs[c] {
							t.Fatalf("%s sample %d ∇h[%d]: walk %d %g, float64 sum %g (Σ|g·w| %g)", name, k, c, walk, got, sum[c], abs[c])
						}
					}
				}
			}
		}
	}
}

// TestStripeFingerprintsSelectLikePerSample: stage 1 of a HOGWILD stripe
// hashes all its samples in one HashDenseMany call, then picks them in
// stripe order. The active lists, their label heads and the top-up stream
// left behind must equal forwarding (forwardHidden), hashing with HashDense
// and picking under the whole layer's budget one sample at a time, for a
// lone sample, a stripe one past the walk tile and a full batch, on every
// tier. Both networks train the same warm-up batches first, so the tables
// hold trained rows.
func TestStripeFingerprintsSelectLikePerSample(t *testing.T) {
	cfg := Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
		Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102, Workers: 1}
	defer simd.SetMode(simd.CurrentMode())
	for _, mode := range simd.AvailableModes() {
		simd.SetMode(mode)
		ks := simd.Active()
		for _, m := range []int{1, simd.WalkTile + 1, 128} {
			var nets [2]*Network
			p := newPlanted(cfg.InputDim, cfg.OutputDim, 1, 9)
			warm := []sparse.Batch{p.batch(32), p.batch(32), p.batch(32)}
			for i := range nets {
				c := cfg
				n, err := New(&c)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range warm {
					n.TrainBatch(b)
				}
				nets[i] = n
			}
			b := p.batch(m)
			got, ref := nets[0].workers[0], nets[1].workers[0]
			nets[0].trainStripe(ks, b, 0, 1, nets[0].adamParams())

			f := nets[1].fwd
			acts := newStack(f.dims)
			hs := make([]uint32, cfg.L)
			var ids []int32
			for k := range m {
				f.forwardHidden(ks, b.Sample(k), acts)
				f.smp.sets[0].HashDense(acts[len(acts)-1], hs)
				var heads int
				ids, heads = f.pick(f.layerBudget(), ref.dedup, ref.rng, b.Labels(k), hs, ids[:0])
				if sel := got.ids[got.offs[k]:got.offs[k+1]]; !slices.Equal(sel, ids) || got.heads[k] != heads {
					t.Fatalf("%v stripe of %d, sample %d: stripe selected %v (%d labels), per sample %v (%d labels)",
						mode, m, k, sel, got.heads[k], ids, heads)
				}
			}
			gs, _ := got.rngSrc.MarshalBinary()
			rs, _ := ref.rngSrc.MarshalBinary()
			if !bytes.Equal(gs, rs) {
				t.Errorf("%v stripe of %d: top-up stream left at another state than per-sample sampling", mode, m)
			}
		}
	}
}

// TestPickBudgets checks the selection contract under every budget a model
// hands out: the whole layer's of an un-sharded and of a Shards: 4 model and
// each shard's of the latter, all sampling through LSH, and the whole
// layer's under NoSampling and UniformSampling. The label lists hold
// duplicates, labels past the layer and more labels than MaxActive, and
// pick appends after ids already in the list. The labels inside the
// budget's rows must lead, deduplicated in list order, and pick must count
// exactly them; every id must lie in the rows, once; the list must hold at
// least the floor and at most max(cap, labels) ids, and every candidate of
// the budget's sets when it holds fewer. Under NoSampling the
// rest of the rows follow in ascending order; under UniformSampling only
// the top-up draws follow, replayed from a copy of the stream. shard(0) of
// an un-sharded model is its whole-layer budget, field by field.
func TestPickBudgets(t *testing.T) {
	const outDim = 100
	base := Config{InputDim: 60, HiddenDim: 16, OutputDim: outDim, Hash: SimHash, K: 3, L: 6,
		MinActive: 12, MaxActive: 20, Seed: 5, Workers: 1}
	many := []int32{outDim + 9} // more labels than MaxActive, one repeated, one past the layer
	for y := int32(0); y < outDim; y += 3 {
		many = append(many, y)
	}
	many = append(many, 6)
	labelLists := [][]int32{nil, {3, 3, 97, 3, outDim + 4, 40}, {outDim, outDim + 1}, many}
	models := []struct {
		name string
		set  func(*Config)
	}{
		{"un-sharded", func(*Config) {}},
		{"shards4", func(c *Config) { c.Shards = 4 }},
		{"NoSampling", func(c *Config) { c.NoSampling = true }},
		{"UniformSampling", func(c *Config) { c.UniformSampling = true }},
	}
	ks := simd.Active()
	p := newPlanted(base.InputDim, outDim, 4, 3)
	x := p.batch(1).Sample(0)
	for _, md := range models {
		c := base
		md.set(&c)
		n, err := New(&c)
		if err != nil {
			t.Fatal(err)
		}
		f := n.fwd
		budgets := []budget{f.layerBudget()}
		if c.Shards > 0 {
			for s := range c.Shards {
				budgets = append(budgets, f.smp.shard(s))
			}
		} else if b, w := f.smp.shard(0), budgets[0]; b.lo != w.lo || b.hi != w.hi || !slices.Equal(b.sets, w.sets) || b.floor != w.floor || b.cap != w.cap {
			t.Errorf("%s: shard(0) is %+v, the whole layer's budget %+v", md.name, b, w)
		}
		acts := newStack(f.dims)
		f.forwardHidden(ks, x, acts)
		hs := make([]uint32, f.smp.tables())
		if f.smp.sampled() {
			f.smp.hash(acts[len(acts)-1], hs)
		}
		for bi, b := range budgets {
			for li, labels := range labelLists {
				name := fmt.Sprintf("%s budget %d [%d,%d) labels %d", md.name, bi, b.lo, b.hi, li)
				ln := newLane(int(b.hi-b.lo), 7, uint64(li))
				stream, _ := ln.rngSrc.MarshalBinary()
				dst, heads := f.pick(b, ln.dedup, ln.rng, labels, hs, []int32{-1, -2})
				if !slices.Equal(dst[:2], []int32{-1, -2}) {
					t.Fatalf("%s: the ids before the pick became %v", name, dst[:2])
				}
				got := dst[2:]
				var want []int32
				for _, y := range labels {
					if y >= b.lo && y < b.hi && !slices.Contains(want, y) {
						want = append(want, y)
					}
				}
				if heads != len(want) || len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
					t.Fatalf("%s: picked %v with %d labels, want the labels %v first", name, got, heads, want)
				}
				seen := map[int32]bool{}
				for _, id := range got {
					if id < b.lo || id >= b.hi || seen[id] {
						t.Fatalf("%s: id %d outside the rows or repeated in %v", name, id, got)
					}
					seen[id] = true
				}
				if c.NoSampling {
					for id := b.lo; id < b.hi; id++ {
						if !slices.Contains(want, id) {
							want = append(want, id)
						}
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: picked %v, want the labels then every other row ascending", name, got)
					}
					continue
				}
				if len(got) < b.floor || (b.cap > 0 && len(got) > max(b.cap, heads)) {
					t.Errorf("%s: picked %d ids, want [%d, max(%d, %d)]", name, len(got), b.floor, b.cap, heads)
				}
				if len(got) < max(b.cap, heads) {
					for _, ts := range b.sets {
						ts.QueryHashes(hs, func(id int32) {
							if !seen[id] {
								t.Errorf("%s: %d ids picked, short of the cap, without candidate %d", name, len(got), id)
							}
						})
					}
				}
				if c.UniformSampling {
					src := new(rand.PCG)
					if err := src.UnmarshalBinary(stream); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(src)
					for len(want) < b.floor {
						if id := b.lo + int32(rng.IntN(int(b.hi-b.lo))); !slices.Contains(want, id) {
							want = append(want, id)
						}
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: picked %v, want the labels then the top-up draws %v", name, got, want)
					}
				}
			}
		}
	}
}

// TestNoSamplingLossIsFullSoftmax: under NoSampling every row is active, the
// labels first, so one step's BatchStats.Loss is the full-softmax
// cross-entropy. It must equal the sum over the batch of each sample's
// −(1/n)·Σ log softmax(logits)[y] over its distinct labels y below OutputDim,
// n the length of its label list (the uniform target labelHead puts on the
// list: a duplicate or a label past the layer takes its share of the target
// and adds no logit; a sample without labels adds nothing), computed in
// float64 from the Scores of every row taken before the step, to 1e-5
// relative. Every row is active for every sample, the label-less one too. A
// list that did not lead with the labels, or label heads that miscounted
// them, would score other rows' logits.
func TestNoSamplingLossIsFullSoftmax(t *testing.T) {
	cfg := Config{InputDim: 40, HiddenDim: 16, OutputDim: 30, NoSampling: true, LR: 0.01, Workers: 1, Seed: 17}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanted(cfg.InputDim, cfg.OutputDim, 5, 19)
	trainN(t, n, p, 4, 16) // logits away from their initial spread

	var sb sparse.Builder
	warm := p.batch(5)
	for i, labels := range [][]int32{{3}, {7, 7, 12}, nil, {int32(cfg.OutputDim) + 4, 2}, {int32(cfg.OutputDim) - 1, 0, 5, 0}} {
		x := warm.Sample(i)
		sb.Add(x.Indices, x.Values, labels)
	}
	b, err := sb.CSR()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	scores := make([]float32, cfg.OutputDim)
	for i := range b.Len() {
		n.Scores(b.Sample(i), scores)
		m := math.Inf(-1)
		for _, s := range scores {
			m = max(m, float64(s))
		}
		var z float64
		for _, s := range scores {
			z += math.Exp(float64(s) - m)
		}
		logZ := m + math.Log(z)
		labels := b.Labels(i)
		seen := map[int32]bool{}
		for _, y := range labels {
			if int(y) < cfg.OutputDim && !seen[y] {
				seen[y] = true
				want -= (float64(scores[y]) - logZ) / float64(len(labels))
			}
		}
	}
	st := n.TrainBatch(b)
	if d := math.Abs(st.Loss-want) / want; !(d <= 1e-5) {
		t.Errorf("NoSampling step loss %.7g, full-softmax cross-entropy %.7g: %.2g apart", st.Loss, want, d)
	}
	if w := int64(b.Len() * cfg.OutputDim); st.ActiveSum != w {
		t.Errorf("ActiveSum %d, want every row of every sample (%d)", st.ActiveSum, w)
	}
}

// TestMultiLabelTargets: a NoSampling step on two workers over a batch that
// holds a multi-label sample and a label-less one must count both samples,
// take every row active for each, and report a positive, finite loss — the
// multi-label sample spreads its target over its labels, the label-less one
// adds no loss and no crash. HOGWILD on several workers races by design, so
// the race lane trains on one.
func TestMultiLabelTargets(t *testing.T) {
	cfg := Config{InputDim: 20, HiddenDim: 8, OutputDim: 10, NoSampling: true, Workers: 2, Seed: 3}
	if platform.RaceEnabled {
		cfg.Workers = 1
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb sparse.Builder
	sb.Add([]int32{1, 3}, []float32{1, 1}, []int32{2, 5, 7})
	sb.Add([]int32{0}, []float32{1}, nil) // no labels
	b, err := sb.CSR()
	if err != nil {
		t.Fatal(err)
	}
	st := n.TrainBatch(b)
	if st.Samples != 2 {
		t.Errorf("samples %d, want 2", st.Samples)
	}
	if !(st.Loss > 0) || math.IsInf(st.Loss, 0) {
		t.Errorf("loss %g, want positive and finite", st.Loss)
	}
	if w := int64(b.Len() * cfg.OutputDim); st.ActiveSum != w {
		t.Errorf("ActiveSum %d, want every row of every sample (%d)", st.ActiveSum, w)
	}
}
