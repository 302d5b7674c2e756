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
// walks"). A variable only so that a test can force the per-sample walk.
var minStripeReuse = 4

// stripe is one set of samples' walk over the output layer: their active
// lists, the logits and logit gradients over them, and the walk chosen for
// them. A HOGWILD worker owns one over its share of a batch, a phase-engine
// shard one over the whole batch and its own rows; both engines run the
// output layer through it, and labelHead reads stripes as its parts.
type stripe struct {
	// Per sample k: its active ids ids[offs[k]:offs[k+1]], of which heads[k]
	// label entries lead.
	offs  []int32
	heads []int
	ids   []int32
	// logits and grads hold the output layer's logits and their gradients at
	// the flat positions of ids.
	logits, grads []float32
	index         layer.StripeIndex
	// rowMajor is the walk plan chose for the stripe in flight; rowMajors and
	// perSamples count the stripes that took each walk over the model's life.
	rowMajor              bool
	rowMajors, perSamples int64
}

// plan sizes the logit buffers for the ids the stripe's m = len(offs)-1
// samples selected out of the output layer's first rows rows, and picks the
// walk: row-major when l's rows are float32 (FP32, BF16Act) and the stripe
// selects each row it touches at least minStripeReuse times on average,
// sample by sample otherwise.
func (s *stripe) plan(l *layer.RowLayer, rows int) {
	s.logits, s.grads = fit(s.logits, len(s.ids)), fit(s.grads, len(s.ids))
	s.rowMajor = l.Options().Precision != layer.BF16Both &&
		s.index.Build(rows, s.offs, s.ids, minStripeReuse)
	if s.rowMajor {
		s.rowMajors++
	} else {
		s.perSamples++
	}
}

// forward fills every sample's logits through the planned walk; hs[k] (and
// hBFs[k], read by BF16Both only) is sample k's output-layer input. A
// row-major walk starts at row first and wraps around.
func (s *stripe) forward(ks *simd.Kernels, l *layer.RowLayer, hs [][]float32, hBFs [][]bf16.BF16, first int) {
	if s.rowMajor {
		l.ForwardStripe(ks, &s.index, hs, s.logits, first)
		return
	}
	for k := range len(s.offs) - 1 {
		s.forwardSample(ks, l, k, hs[k], hBFs[k])
	}
}

// backward accumulates every sample's output-layer gradients, and adds its
// input gradient into dhs[k], through the planned walk: on the row-major one
// each input gradient sums in row-walk order from row first
// (layer.AccumulateStripe), otherwise in list order.
func (s *stripe) backward(ks *simd.Kernels, l *layer.RowLayer, hs [][]float32, hBFs [][]bf16.BF16, dhs [][]float32, first int) {
	if s.rowMajor {
		l.AccumulateStripe(ks, &s.index, s.grads, hs, dhs, first)
		return
	}
	for k := range len(s.offs) - 1 {
		s.backwardSample(ks, l, k, hs[k], hBFs[k], dhs[k])
	}
}

// forwardSample is sample k's per-sample forward walk.
func (s *stripe) forwardSample(ks *simd.Kernels, l *layer.RowLayer, k int, h []float32, hBF []bf16.BF16) {
	lo, hi := s.offs[k], s.offs[k+1]
	l.ForwardActive(ks, s.ids[lo:hi], h, hBF, s.logits[lo:hi])
}

// backwardSample is sample k's per-sample backward walk.
func (s *stripe) backwardSample(ks *simd.Kernels, l *layer.RowLayer, k int, h []float32, hBF []bf16.BF16, dh []float32) {
	lo, hi := s.offs[k], s.offs[k+1]
	l.AccumulateActive(ks, s.ids[lo:hi], s.grads[lo:hi], h, hBF, dh)
}

// worker is one HOGWILD worker's state for the model's life: the forward
// scratch (top-up RNG, dedup stamps, the stripe's fingerprints), its output
// walk over its share of the batch, one sample's activation gradients, and
// the per-sample buffers the staged body keeps from stage to stage. The
// buffers grow to the longest stripe seen and stay.
type worker struct {
	*scratch
	stripe
	// dhs holds one sample's activation gradients, shaped like acts; backward
	// points its last slot at the sample's output-layer input gradient.
	dhs [][]float32

	// Per sample k of the stripe: its activations [k][layer], the last of
	// them (the output layer's input) and its bfloat16 rendering under
	// BF16Both.
	sampleActs [][][]float32
	lasts      [][]float32
	lastsBF    [][]bf16.BF16
	// lastDhs holds the output layer's input gradient per sample: the whole
	// stripe's on the row-major walk, which alone grows it past the one
	// buffer the per-sample walk reuses.
	lastDhs [][]float32

	// loss, activeSum and nonFinite are the worker's partial BatchStats for
	// the batch in flight.
	loss      float64
	activeSum int64
	nonFinite int64
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
		if f.cfg.Precision == layer.BF16Both {
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
//  2. plan the output walk (stripe.plan) — a float32-row stripe at
//     minStripeReuse or more selections per touched row then
//  3. walks the output layer row-major: every logit, the label heads in
//     sample order, then every weight gradient and every sample's input
//     gradient in one pass over the rows;
//  4. the middle stack and hidden backward, per sample in stripe order.
//
// A stripe below the crossover, or of BF16Both rows, runs 3 and 4 per
// sample instead, each sample's forward, label head, gradient and backward
// before the next sample's, so that its rows are still in cache for its
// gradient (DESIGN.md "Known divergences"); NoSampling stripes run
// stripeNoSampling. Either way the bits are those of running each sample end
// to end in stripe order, except that the row-major walk sums each input
// gradient in row order (AccumulateStripe). The share's loss, active-set and
// non-finite sums are left in the worker.
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
	if n.cfg.NoSampling {
		ws.perSamples++
		n.stripeNoSampling(ws, b, w, nw, m)
		return
	}
	n.fwd.smp.hashMany(ws.lasts[:m], ws.hashBuf)
	l := n.fwd.smp.tables()
	ws.ids = ws.ids[:0]
	for k := range m {
		ws.heads[k] = n.fwd.sampleActive(ws.scratch, b.Labels(w+k*nw), ws.hashBuf[k*l:(k+1)*l])
		ws.ids = extend(ws.ids, ws.active)
		ws.offs[k+1] = int32(len(ws.ids))
	}

	ws.plan(n.output, n.cfg.OutputDim)
	parts := []*stripe{&ws.stripe}
	head := func(k int) {
		if ws.offs[k] < ws.offs[k+1] {
			loss, _, bad := n.labelHead(ks, parts, k, len(b.Labels(w+k*nw)))
			ws.fold(n, loss, int(ws.offs[k+1]-ws.offs[k]), bad)
		}
	}
	if !ws.rowMajor {
		dh := ws.lastDhs[0]
		for k := range m {
			if ws.offs[k] == ws.offs[k+1] {
				continue
			}
			ws.forwardSample(ks, n.output, k, ws.lasts[k], ws.lastsBF[k])
			head(k)
			simd.Zero(dh)
			ws.backwardSample(ks, n.output, k, ws.lasts[k], ws.lastsBF[k], dh)
			n.backward(ws, k, dh, b.Sample(w+k*nw))
		}
		return
	}
	first := w * n.cfg.OutputDim / nw // concurrent workers sweep apart
	hs := ws.lasts[:m]
	ws.forward(ks, n.output, hs, nil, first)
	for k := range m {
		head(k)
	}
	for len(ws.lastDhs) < m {
		ws.lastDhs = append(ws.lastDhs, make([]float32, n.fwd.lastDim))
	}
	dhs := ws.lastDhs[:m]
	for _, dh := range dhs {
		simd.Zero(dh)
	}
	ws.backward(ks, n.output, hs, nil, dhs, first)
	for k, dh := range dhs {
		if ws.offs[k] < ws.offs[k+1] {
			n.backward(ws, k, dh, b.Sample(w+k*nw))
		}
	}
}

// stripeNoSampling is stages 3 and 4 under NoSampling, sample by sample:
// every row is active, so the labels sit wherever their ids do — stamped
// here, found by the stamps in the loss.
func (n *Network) stripeNoSampling(ws *worker, b sparse.Batch, w, nw, m int) {
	active := n.fwd.all
	na := len(active)
	ws.offs[1], ws.heads[0], ws.ids = int32(na), 0, active
	ws.stripe.logits, ws.grads = fit(ws.stripe.logits, na), fit(ws.grads, na)
	parts := []*stripe{&ws.stripe}
	dh := ws.lastDhs[0]
	for k := range m {
		i := w + k*nw
		labels := b.Labels(i)
		ws.dedup.Begin()
		for _, y := range labels {
			if int(y) < n.cfg.OutputDim {
				ws.dedup.Seen(y)
			}
		}
		ws.forwardSample(ws.ks, n.output, 0, ws.lasts[k], ws.lastsBF[k])
		loss, logZ, bad := n.labelHead(ws.ks, parts, 0, len(labels))
		if len(labels) > 0 {
			t := 1 / float32(len(labels))
			for j, id := range active {
				if ws.dedup.Seen(id) { // stamped above => true for labels
					ws.grads[j] -= t
					loss -= float64(t) * (float64(ws.stripe.logits[j]) - logZ)
				}
			}
		}
		ws.fold(n, loss, na, bad)
		simd.Zero(dh)
		ws.backwardSample(ws.ks, n.output, 0, ws.lasts[k], ws.lastsBF[k], dh)
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

// StripeWalks reports how many output walks have been row-major and how
// many per sample since the model was built (see minStripeReuse): one per
// HOGWILD worker stripe, and one per shard and batch on the phase engine.
// Diagnostics. Not safe concurrently with TrainBatch.
func (n *Network) StripeWalks() (rowMajor, perSample int64) {
	count := func(s *stripe) {
		rowMajor += s.rowMajors
		perSample += s.perSamples
	}
	for _, ws := range n.workers {
		count(&ws.stripe)
	}
	if n.sh != nil {
		for _, ss := range n.sh.shards {
			count(&ss.stripe)
		}
	}
	return rowMajor, perSample
}
