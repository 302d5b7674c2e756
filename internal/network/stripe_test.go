package network

import (
	"bytes"
	"math"
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
// on two identical phase-engine models: through the shard's row-major walk,
// and sample by sample — ForwardActive, then Accumulate per selection in list
// order. The logits, the output layer's weight and bias gradients and its
// touched rows must be bit-identical, and every ∇h partial must lie within
// 1e-5·Σ|g·w| of its float64 sum on both walks — the bound HOGWILD's
// row-major input gradient is held to (layer's checkStripeDh). The gradients
// are read through an ADAM step with Beta1 = 0, whose first moment is the
// gradient itself.
func TestShardWalksAgreeOnOneBatch(t *testing.T) {
	defer simd.SetMode(simd.CurrentMode())
	for _, mode := range simd.AvailableModes() {
		simd.SetMode(mode)
		ks := simd.Active()
		p := newPlanted(text8Mini.InputDim, text8Mini.OutputDim, 1, 9)
		batches := []sparse.Batch{p.batch(32), p.batch(32), p.batch(32), p.batch(48)}
		var logits [2][]float32
		var dhs [2][][]float32
		var state [2][]byte
		var journal [2][]int32
		var read *layer.RowWeights // the weights both passes read
		var ss *shardScratch       // the per-sample pass's selection and gradients
		for w := range 2 {
			c := text8Mini
			c.Shards, c.Workers = 1, 1
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
			hs, dh := sh.lastA[:B], ss.dhPart[:B]
			for _, d := range dh {
				simd.Zero(d)
			}
			ss.plan(c.OutputDim)
			if w == 0 {
				ss.forward(ks, n.output, hs, 0)
			} else {
				for k := range B {
					lo, hi := ss.offs[k], ss.offs[k+1]
					n.output.ForwardActive(ks, ss.ids[lo:hi], hs[k], nil, ss.logits[lo:hi])
				}
			}
			for i := range B {
				n.labelHead(ks, sh.parts, i, len(b.Labels(i)))
			}
			if w == 0 {
				ss.backward(ks, n.output, hs, dh, 0)
			} else {
				for k := range B {
					for j := ss.offs[k]; j < ss.offs[k+1]; j++ {
						n.output.Accumulate(ks, ss.ids[j], ss.grads[j], hs[k], nil, dh[k])
					}
				}
			}
			if n.output.TouchedRows() == 0 {
				t.Fatalf("%v: walk %d touched no row", mode, w)
			}
			read = n.output.SnapshotWeights()
			n.output.ApplyAdam(ks, simd.NewAdamParams(0.01, 0, 0.999, 1e-8, 1), 1)
			var buf bytes.Buffer
			if err := n.output.Serialize(&buf); err != nil {
				t.Fatal(err)
			}
			logits[w], dhs[w] = ss.logits, dh
			state[w], journal[w] = buf.Bytes(), n.output.DrainJournal()
		}
		if !slices.Equal(logits[0], logits[1]) {
			t.Errorf("%v: row-major logits differ from per-sample ones", mode)
		}
		if !bytes.Equal(state[0], state[1]) {
			t.Errorf("%v: row-major weight or bias gradients differ from per-sample ones", mode)
		}
		if !slices.Equal(journal[0], journal[1]) {
			t.Errorf("%v: the walks touched rows %v and %v", mode, journal[0], journal[1])
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
						t.Fatalf("%v sample %d ∇h[%d]: walk %d %g, float64 sum %g (Σ|g·w| %g)", mode, k, c, walk, got, sum[c], abs[c])
					}
				}
			}
		}
	}
}

// TestStripeFingerprintsSelectLikePerSample: stage 1 of a HOGWILD stripe
// hashes all its samples in one HashDenseMany call, then samples them in
// stripe order. The active lists, their label heads and the top-up stream
// left behind must equal forwarding, hashing with HashDense and sampling one
// sample at a time, for a lone sample, a stripe one past the walk tile and a
// full batch, on every tier. Both networks train the same warm-up batches
// first, so the tables hold trained rows.
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
			nets[0].trainStripe(ks, b, 0, 1)

			f := nets[1].fwd
			ref.ks = ks
			hs := make([]uint32, cfg.L)
			for k := range m {
				f.forwardStack(ref.scratch, b.Sample(k))
				f.smp.sets[0].HashDense(ref.last(), hs)
				heads := f.sampleActive(ref.scratch, b.Labels(k), hs)
				if ids := got.ids[got.offs[k]:got.offs[k+1]]; !slices.Equal(ids, ref.active) || got.heads[k] != heads {
					t.Fatalf("%v stripe of %d, sample %d: stripe selected %v (%d labels), per sample %v (%d labels)",
						mode, m, k, ids, got.heads[k], ref.active, heads)
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
