package network

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// TestStripeWalksTrainLikePhaseEngine checks the row-major output walks by
// what they train, independently of any pinned hash: the text8 miniature of
// TestTrainingBitsPinned trains 36 steps on HOGWILD at W=1, whose stripes walk
// the output layer row-major, and on the phase engine with one shard, which
// shares none of the stripe code, from the same seed and the same batches.
// The mean per-sample loss of the last 8 steps must agree within
// stripeLossBand. On the commit before the input gradient was summed in
// row-walk order the two read 4.2078 and 4.2200 on every tier, 0.29 % apart
// (and still do); a row-major walk that left the input gradient at zero read
// 4.6776, 10.8 % apart.
func TestStripeWalksTrainLikePhaseEngine(t *testing.T) {
	const stripeLossBand = 0.02 // relative: about seven times the measured spread
	cfg := Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
		Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		var tail [2]float64
		for i, engine := range []func(*Config){
			func(c *Config) { c.Workers = 1 },
			func(c *Config) { c.Shards, c.Workers = 1, 2 },
		} {
			c := cfg
			engine(&c)
			n, err := New(&c)
			if err != nil {
				t.Fatal(err)
			}
			p := newPlanted(c.InputDim, c.OutputDim, 1, 7)
			for step := range 36 {
				st := n.TrainBatch(p.batch(32))
				if step >= 28 {
					tail[i] += st.Loss / float64(st.Samples) / 8
				}
			}
			if rm, ps := n.StripeWalks(); c.Shards == 0 && rm <= ps {
				t.Fatalf("%v: %d stripes walked the output layer row-major, %d per sample", m, rm, ps)
			}
		}
		if d := math.Abs(tail[0]-tail[1]) / tail[1]; !(d <= stripeLossBand) {
			t.Errorf("%v: last-8-step mean loss %.4f row-major, %.4f phase engine: %.1f %% apart, band %.0f %%",
				m, tail[0], tail[1], 100*d, 100*stripeLossBand)
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
