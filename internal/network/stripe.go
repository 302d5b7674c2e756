package network

import (
	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// minStripeReuse is the crossover of the stripe-major output walks: a stripe
// whose active lists select each row they touch at least this many times on
// average walks the output layer row by row (one load of a row and its
// gradient per stripe); below it, sample by sample. text8-s stripes select a
// touched row 11–21 times, amazon-s ones 1.6–2.3 times, where the row-major
// walk measured 10–20 % slower end to end (DESIGN.md "Stripe-major output
// walks").
const minStripeReuse = 4

// worker is one HOGWILD worker's state for the model's life: the forward
// scratch (top-up RNG, dedup stamps, the stripe's fingerprints), one
// sample's activation gradients, and the stripe buffers the staged body
// keeps from stage to stage. The stripe buffers grow to the longest stripe seen and stay.
type worker struct {
	*scratch
	// dhs holds one sample's activation gradients, shaped like acts; backward
	// points its last slot at the sample's output-layer input gradient.
	dhs [][]float32

	// Per sample k of the stripe: its activations [k][layer], the last of
	// them (the output layer's input) and its bfloat16 rendering under the
	// BF16 modes; its active ids ids[offs[k]:offs[k+1]], of which heads[k]
	// label entries lead.
	sampleActs [][][]float32
	lasts      [][]float32
	lastsBF    [][]bf16.BF16
	offs       []int32
	heads      []int
	ids        []int32
	// logits and grads hold the output layer's logits and their gradients:
	// the whole stripe's at the flat positions of ids on the row-major walk,
	// one sample's at a time on the per-sample one.
	logits, grads []float32
	index         layer.StripeIndex
	// lastDhs holds the output layer's input gradient per sample: the whole
	// stripe's on the row-major walk, which alone grows it past the one
	// buffer the per-sample walk reuses.
	lastDhs [][]float32

	// loss, activeSum and nonFinite are the worker's partial BatchStats for
	// the batch in flight; rowMajor and perSample count the stripes that took
	// each output walk over the model's life.
	loss                float64
	activeSum           int64
	nonFinite           int64
	rowMajor, perSample int64
}

func (f *forwardState) newWorker(seed, stream uint64) *worker {
	ws := &worker{scratch: f.newScratch(true, seed, stream)}
	for _, d := range f.dims {
		ws.dhs = append(ws.dhs, make([]float32, d))
	}
	// The scratch's own activation buffers serve as sample 0's; stage 1
	// points them at sample k's before each forward.
	ws.sampleActs = [][][]float32{ws.acts}
	ws.lasts = [][]float32{ws.last()}
	ws.lastsBF = [][]bf16.BF16{ws.hBF}
	ws.lastDhs = [][]float32{ws.dhs[len(ws.dhs)-1]}
	return ws
}

// fitStripe grows the per-sample buffers, the fingerprints among them, to
// hold a stripe of m samples.
func (ws *worker) fitStripe(f *forwardState, m int) {
	for len(ws.sampleActs) < m {
		acts := make([][]float32, len(f.dims))
		for i, d := range f.dims {
			acts[i] = make([]float32, d)
		}
		var hBF []bf16.BF16
		if f.cfg.Precision != layer.FP32 {
			hBF = make([]bf16.BF16, f.lastDim)
		}
		ws.sampleActs = append(ws.sampleActs, acts)
		ws.lasts = append(ws.lasts, acts[len(acts)-1])
		ws.lastsBF = append(ws.lastsBF, hBF)
	}
	ws.offs, ws.heads = fit(ws.offs, m+1), fit(ws.heads, m)
	ws.hashBuf = fit(ws.hashBuf, m*f.smp.tables())
}

// trainStripe runs worker w's share of a batch — samples w, w+nw, … — in
// stages, each finished for every sample of the stripe before the next
// starts, which is sound because no weight changes inside a batch:
//
//  1. forward every sample; hash the stripe's output-layer inputs in one
//     HashDenseMany call (SimHash walks its hyperplanes once per tile of
//     simd.WalkTile samples); then sample, in stripe order, so the top-up
//     draws keep their order;
//  2. transpose the stripe's active lists (StripeIndex.Build) — an FP32
//     stripe at minStripeReuse or more selections per touched row then
//  3. walks the output layer row-major: every logit, the label heads in
//     sample order, then every weight gradient and every sample's input
//     gradient in one pass over the rows;
//  4. the middle stack and hidden backward, per sample in stripe order.
//
// Any other stripe — below the crossover, BF16, NoSampling — runs 3 and 4
// sample by sample through ForwardActive and AccumulateActive. Either way the
// bits are those of running each sample end to end in stripe order, except
// that the row-major walk sums each input gradient in row order
// (AccumulateStripe). The share's loss, active-set and non-finite sums are
// left in the worker.
func (n *Network) trainStripe(ks *simd.Kernels, b sparse.Batch, w, nw int) {
	ws := n.workers[w]
	ws.ks = ks
	ws.loss, ws.activeSum, ws.nonFinite = 0, 0, 0
	m := (b.Len() - w + nw - 1) / nw
	ws.fitStripe(n.fwd, m)

	for k := range m {
		ws.acts, ws.hBF = ws.sampleActs[k], ws.lastsBF[k]
		n.fwd.forwardStack(ws.scratch, b.Sample(w+k*nw))
	}
	n.fwd.smp.hashMany(ws.lasts[:m], ws.hashBuf)
	l := n.fwd.smp.tables()
	ws.ids = ws.ids[:0]
	for k := range m {
		if !n.cfg.NoSampling {
			ws.heads[k] = n.fwd.sampleActive(ws.scratch, b.Labels(w+k*nw), ws.hashBuf[k*l:(k+1)*l])
			ws.ids = extend(ws.ids, ws.active)
		}
		ws.offs[k+1] = int32(len(ws.ids))
	}

	if n.cfg.NoSampling || n.cfg.Precision != layer.FP32 ||
		!ws.index.Build(n.cfg.OutputDim, ws.offs[:m+1], ws.ids, minStripeReuse) {
		ws.perSample++
		n.stripePerSample(ws, b, w, nw, m)
		return
	}
	ws.rowMajor++
	first := w * n.cfg.OutputDim / nw // concurrent workers sweep apart
	hs := ws.lasts[:m]
	ws.logits, ws.grads = fit(ws.logits, len(ws.ids)), fit(ws.grads, len(ws.ids))
	n.output.ForwardStripe(ks, &ws.index, hs, ws.logits, first)
	for k := range m {
		lo, hi := ws.offs[k], ws.offs[k+1]
		if lo < hi {
			loss, _, bad := n.labelHead(ks, [][]float32{ws.logits[lo:hi]}, [][]float32{ws.grads[lo:hi]}, []int{ws.heads[k]}, len(b.Labels(w+k*nw)))
			ws.fold(n, loss, int(hi-lo), bad)
		}
	}
	for len(ws.lastDhs) < m {
		ws.lastDhs = append(ws.lastDhs, make([]float32, n.fwd.lastDim))
	}
	dhs := ws.lastDhs[:m]
	for _, dh := range dhs {
		simd.Zero(dh)
	}
	n.output.AccumulateStripe(ks, &ws.index, ws.grads, hs, dhs, first)
	for k, dh := range dhs {
		if ws.offs[k] < ws.offs[k+1] {
			n.backward(ws, k, dh, b.Sample(w+k*nw))
		}
	}
}

// stripePerSample is stages 3 and 4 sample by sample: the output layer's
// ForwardActive, the label head, AccumulateActive and the backward pass of
// one sample before the next.
func (n *Network) stripePerSample(ws *worker, b sparse.Batch, w, nw, m int) {
	for k := range m {
		i := w + k*nw
		labels := b.Labels(i)
		active, nLabels := ws.ids[ws.offs[k]:ws.offs[k+1]], ws.heads[k]
		if n.cfg.NoSampling {
			// Every row is active, so the labels sit wherever their ids
			// do: stamp them here, find them by the stamps below.
			ws.dedup.Begin()
			for _, y := range labels {
				if int(y) < n.cfg.OutputDim {
					ws.dedup.Seen(y)
				}
			}
			active, nLabels = n.fwd.all, 0
		}
		na := len(active)
		if na == 0 {
			continue
		}
		ws.logits, ws.grads = fit(ws.logits, na), fit(ws.grads, na)
		logits, probs := ws.logits, ws.grads
		n.output.ForwardActive(ws.ks, active, ws.lasts[k], ws.lastsBF[k], logits)
		loss, logZ, bad := n.labelHead(ws.ks, [][]float32{logits}, [][]float32{probs}, []int{nLabels}, len(labels))
		if n.cfg.NoSampling && len(labels) > 0 {
			t := 1 / float32(len(labels))
			for j, id := range active {
				if ws.dedup.Seen(id) { // stamped above => true for labels
					probs[j] -= t
					loss -= float64(t) * (float64(logits[j]) - logZ)
				}
			}
		}
		ws.fold(n, loss, na, bad)
		dh := ws.lastDhs[0]
		simd.Zero(dh)
		n.output.AccumulateActive(ws.ks, active, probs, ws.lasts[k], ws.lastsBF[k], dh)
		n.backward(ws, k, dh, b.Sample(i))
	}
}

// fold adds one sample's loss, active-set size and non-finite count to the
// worker's partial stats.
func (ws *worker) fold(n *Network, loss float64, na int, bad int64) {
	ws.loss += loss
	ws.activeSum += int64(na)
	ws.nonFinite += n.guardLoss(loss, bad)
}

// backward propagates sample k's output-layer input gradient dh through the
// middle stack and into the hidden layer.
func (n *Network) backward(ws *worker, k int, dh []float32, x sparse.Vector) {
	acts := ws.sampleActs[k]
	ws.dhs[len(ws.dhs)-1] = dh
	n.backwardMiddle(ws.ks, acts, ws.dhs)
	n.hidden.Backward(ws.ks, x, acts[0], ws.dhs[0])
}

// extend appends xs to buf, growing it as fit does.
func extend[T any](buf, xs []T) []T {
	if n := len(buf) + len(xs); n > cap(buf) {
		buf = append(make([]T, 0, max(n, 2*cap(buf))), buf...)
	}
	return append(buf, xs...)
}

// StripeWalks reports how many worker stripes have taken each output walk
// since the model was built: the row-major one and the per-sample one (see
// minStripeReuse). Diagnostics; the phase engine counts neither. Not safe
// concurrently with TrainBatch.
func (n *Network) StripeWalks() (rowMajor, perSample int64) {
	for _, ws := range n.workers {
		rowMajor += ws.rowMajor
		perSample += ws.perSample
	}
	return rowMajor, perSample
}
