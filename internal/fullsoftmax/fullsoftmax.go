// Package fullsoftmax implements the dense full-softmax baseline — the
// stand-in for the paper's "TF FullSoftmax" TensorFlow runs (§5).
//
// Unlike the SLIDE engine, which parallelizes per sample over a tiny active
// set, this trainer executes the classical dense schedule: batch-level
// matrix products tiled over output neurons, every logit computed, every
// parameter updated every batch. It shares the layer storage and the simd
// kernels with the optimized code so that the baseline benefits from the
// same vectorization — the measured gap is therefore the algorithmic gap
// (sampled vs full softmax), exactly the comparison in Figure 6/Table 2.
package fullsoftmax

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Config describes the dense baseline. The architecture mirrors
// network.Config; training is always FP32 (the paper reports the TF
// baseline without mixed precision — AMP did not help, §5).
type Config struct {
	InputDim         int
	HiddenDim        int
	OutputDim        int
	HiddenActivation layer.Activation

	LR, Beta1, Beta2, Eps float64

	// Workers is the tile/sample parallelism (default GOMAXPROCS).
	Workers int
	// SampleChunk bounds the B'×OutputDim logits buffer (default 128
	// samples per chunk).
	SampleChunk int

	Seed uint64
}

// Validate fills defaults and reports errors.
func (c *Config) Validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.OutputDim <= 0 {
		return fmt.Errorf("fullsoftmax: dimensions must be positive (got %d/%d/%d)",
			c.InputDim, c.HiddenDim, c.OutputDim)
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SampleChunk <= 0 {
		c.SampleChunk = 128
	}
	return nil
}

// Trainer is the dense full-softmax trainer.
type Trainer struct {
	cfg    Config
	hidden *layer.ColLayer
	output *layer.RowLayer
	step   int64

	// chunk scratch
	h      [][]float32     // SampleChunk × HiddenDim activations
	logits []float32       // SampleChunk × OutputDim, row-major per sample
	dh     [][]float32     // per-worker partial input gradients: Workers × (SampleChunk × HiddenDim)
	dhs    [][]float32     // per-sample views of the reduced gradient, dh[0]
	xs     []sparse.Vector // the chunk's samples
	rowBuf [][]float32     // per-worker row expansion buffers
	exps   [][]float32     // per-worker OutputDim rows for ExpSum's exps, never read
	evalH  []float32
}

// BatchStats reports one TrainBatch call.
type BatchStats struct {
	Samples int
	Loss    float64
}

// New builds a dense baseline trainer.
func New(cfg *Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hOpts := layer.Options{Seed: cfg.Seed ^ 0xA5A5}
	oOpts := layer.Options{Seed: cfg.Seed ^ 0x5A5A}
	t := &Trainer{
		cfg:    *cfg,
		hidden: layer.NewColLayer(cfg.InputDim, cfg.HiddenDim, cfg.HiddenActivation, hOpts),
		output: layer.NewRowLayer(cfg.HiddenDim, cfg.OutputDim, oOpts),
		logits: make([]float32, cfg.SampleChunk*cfg.OutputDim),
		xs:     make([]sparse.Vector, cfg.SampleChunk),
		evalH:  make([]float32, cfg.HiddenDim),
	}
	t.dh = make([][]float32, cfg.Workers)
	t.rowBuf = make([][]float32, cfg.Workers)
	t.exps = make([][]float32, cfg.Workers)
	for w := range t.dh {
		t.dh[w] = make([]float32, cfg.SampleChunk*cfg.HiddenDim)
		t.rowBuf[w] = make([]float32, cfg.HiddenDim)
		t.exps[w] = make([]float32, cfg.OutputDim)
	}
	hd := cfg.HiddenDim
	t.h = make([][]float32, cfg.SampleChunk)
	t.dhs = make([][]float32, cfg.SampleChunk)
	for i := range t.h {
		t.h[i] = make([]float32, hd)
		t.dhs[i] = t.dh[0][i*hd : (i+1)*hd]
	}
	return t, nil
}

// Config returns the validated configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Hidden returns the hidden layer.
func (t *Trainer) Hidden() *layer.ColLayer { return t.hidden }

// Output returns the output layer.
func (t *Trainer) Output() *layer.RowLayer { return t.output }

// Step returns the optimizer step count.
func (t *Trainer) Step() int64 { return t.step }

// parallelFor splits [0,n) into contiguous ranges across workers; f gets the
// worker's index too, below workers.
func parallelFor(n, workers int, f func(w, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// TrainBatch runs one dense gradient step: full forward, full softmax, full
// backward, dense ADAM over every output row.
func (t *Trainer) TrainBatch(b sparse.Batch) BatchStats {
	stats := BatchStats{Samples: b.Len()}
	ks := simd.Active() // one dispatch resolution for the whole batch
	for lo := 0; lo < b.Len(); lo += t.cfg.SampleChunk {
		hi := min(lo+t.cfg.SampleChunk, b.Len())
		stats.Loss += t.chunk(ks, b, lo, hi)
	}
	t.step++
	p := simd.NewAdamParams(t.cfg.LR, t.cfg.Beta1, t.cfg.Beta2, t.cfg.Eps, t.step)
	t.hidden.ApplyAdam(ks, p, t.cfg.Workers)
	t.output.ApplyAdamAll(ks, p, t.cfg.Workers)
	return stats
}

// chunk processes samples [lo,hi) of the batch and returns the summed loss.
func (t *Trainer) chunk(ks *simd.Kernels, b sparse.Batch, lo, hi int) float64 {
	n := hi - lo
	out := t.cfg.OutputDim
	hd := t.cfg.HiddenDim

	// 1. Hidden forward, parallel over samples.
	parallelFor(n, t.cfg.Workers, func(_, s, e int) {
		for i := s; i < e; i++ {
			t.hidden.Forward(ks, b.Sample(lo+i), t.h[i])
		}
	})

	// 2. All logits, tiled over output neurons: streams each weight row
	// once across the whole chunk (the matmul access pattern).
	parallelFor(out, t.cfg.Workers, func(_, s, e int) {
		for id := s; id < e; id++ {
			for i := 0; i < n; i++ {
				t.logits[i*out+id] = t.output.Logit(ks, int32(id), t.h[i])
			}
		}
	})

	// 3. Softmax + cross-entropy per sample; logits become gz in place.
	losses := make([]float64, n)
	parallelFor(n, t.cfg.Workers, func(w, s, e int) {
		for i := s; i < e; i++ {
			row := t.logits[i*out : (i+1)*out]
			maxL := ks.Max(row)
			z := ks.ExpSum(row, maxL, t.exps[w], 0)
			logZ := math.Log(z) + float64(maxL)
			labels := b.Labels(lo + i)
			var tgt float32
			if len(labels) > 0 {
				tgt = 1 / float32(len(labels))
			}
			for k := range row {
				row[k] = float32(math.Exp(float64(row[k]) - logZ)) // probability
			}
			for _, y := range labels {
				if int(y) < out {
					losses[i] -= float64(tgt) * math.Log(float64(row[y])+1e-30)
					row[y] -= tgt
				}
			}
		}
	})
	var loss float64
	for _, l := range losses {
		loss += l
	}

	// 4. Output gradients (rows owned per tile) and partial dH per worker.
	// Every partial buffer is cleared, including those of workers that do
	// not spawn this chunk, because step 5 reduces over all of them.
	for w := range t.dh {
		clear(t.dh[w])
	}
	workers := t.cfg.Workers
	if workers > out {
		workers = out
	}
	per := (out + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := w * per
		e := min(s+per, out)
		if s >= e {
			break
		}
		wg.Add(1)
		go func(w, s, e int) {
			defer wg.Done()
			dhw := t.dh[w]
			buf := t.rowBuf[w]
			for id := s; id < e; id++ {
				rowW := t.output.RowF32(id, buf)
				for i := 0; i < n; i++ {
					gz := t.logits[i*out+id]
					if gz == 0 {
						continue
					}
					t.output.AccumulateOwnedRow(ks, int32(id), gz, t.h[i])
					ks.Axpy(gz, rowW, dhw[i*hd:(i+1)*hd])
				}
			}
		}(w, s, e)
	}
	wg.Wait()

	// 5. Hidden backward over disjoint hidden-unit tiles, units owned per
	// tile like the output rows in step 4: reduce the worker partials into
	// dh[0] over the tile, then accumulate the tile's gradients.
	for i := range n {
		t.xs[i] = b.Sample(lo + i)
	}
	parallelFor(hd, t.cfg.Workers, func(_, s, e int) {
		for i := range n {
			for w := 1; w < len(t.dh); w++ {
				ks.Add(t.dh[w][i*hd+s:i*hd+e], t.dhs[i][s:e])
			}
		}
		t.hidden.BackwardBatchRange(ks, t.xs[:n], t.h[:n], t.dhs[:n], s, e)
	})
	return loss
}

// Scores computes the full logits for one sample into out (len OutputDim).
// Not safe for concurrent use with training.
func (t *Trainer) Scores(x sparse.Vector, out []float32) {
	ks := simd.Active()
	t.hidden.Forward(ks, x, t.evalH)
	t.output.ForwardAll(ks, t.evalH, nil, out, t.cfg.Workers)
}
