package network

import (
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// stripe is one set of samples' walk over the output layer: their active
// lists, the logits and logit gradients over them, and the row-major index
// the walk runs on. A HOGWILD worker owns one over its share of a batch, a
// phase-engine shard one over the whole batch and its own rows; both engines
// run the output layer through it, and labelHead reads stripes as its parts.
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
}

// plan sizes the logit buffers for the ids the stripe's m = len(offs)-1
// samples selected out of the output layer's first rows rows, and transposes
// the selections into the stripe's index.
func (s *stripe) plan(rows int) {
	s.logits, s.grads = fit(s.logits, len(s.ids)), fit(s.grads, len(s.ids))
	s.index.Build(rows, s.offs, s.ids)
}

// forward fills every sample's logits in one row-major walk that starts at
// row first and wraps around; hs[k] is sample k's output-layer input.
func (s *stripe) forward(ks *simd.Kernels, l *layer.RowLayer, hs [][]float32, first int) {
	l.ForwardStripe(ks, &s.index, hs, s.logits, first)
}

// backward accumulates every sample's output-layer gradients, and adds its
// input gradient into dhs[k], in one row-major walk from row first: each
// input gradient sums in row-walk order (layer.AccumulateStripe), and a
// non-nil step is applied to each owned row as the walk leaves it.
func (s *stripe) backward(ks *simd.Kernels, l *layer.RowLayer, hs, dhs [][]float32, first int, step *simd.AdamParams) {
	l.AccumulateStripe(ks, &s.index, s.grads, hs, dhs, first, step)
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

	// Per sample k of the stripe: its activations [k][layer] and the last of
	// them (the output layer's input).
	sampleActs [][][]float32
	lasts      [][]float32
	// lastDhs holds the output layer's input gradient per sample.
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
	// The scratch's own activation buffers, and the last of its activation
	// gradients, serve as sample 0's; stage 1 points them at sample k's
	// before each forward.
	ws.sampleActs = [][][]float32{ws.acts}
	ws.lasts = [][]float32{ws.last()}
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
		ws.sampleActs = append(ws.sampleActs, acts)
		ws.lasts = append(ws.lasts, acts[len(acts)-1])
		ws.lastDhs = append(ws.lastDhs, make([]float32, f.lastDim))
	}
	ws.offs, ws.heads = fit(ws.offs, m+1), fit(ws.heads, m)
	ws.hashBuf = fit(ws.hashBuf, m*f.smp.tables())
}

// trainStripe runs worker w's share of a batch — samples w, w+nw, … — in
// stages, each finished for every sample of the stripe before the next
// starts, which is sound because no weight changes before its last read:
//
//  1. forward every sample; hash the stripe's output-layer inputs in one
//     HashDenseMany call (SimHash walks its hyperplanes once per tile of
//     simd.WalkTile samples); then sample, in stripe order, so the top-up
//     draws keep their order;
//  2. walk the output layer row-major (stripe.plan, stripe.forward): every
//     logit, then the label heads in sample order, then every weight
//     gradient and every sample's input gradient in one pass over the rows
//     (stripe.backward), which also steps each row's ADAM with p when a lone
//     worker (nw == 1) owns every row; shared rows wait for TrainBatch;
//  3. the middle stack and hidden backward, per sample in stripe order.
//
// The bits are those of running each sample end to end in stripe order,
// except that each input gradient sums in row-walk order (AccumulateStripe).
// The share's loss, active-set and non-finite sums are left in the worker.
func (n *Network) trainStripe(ks *simd.Kernels, b sparse.Batch, w, nw int, p simd.AdamParams) {
	ws := n.workers[w]
	ws.ks = ks
	ws.loss, ws.activeSum, ws.nonFinite = 0, 0, 0
	m := (b.Len() - w + nw - 1) / nw
	ws.fitStripe(n.fwd, m)

	for k := range m {
		ws.acts = ws.sampleActs[k]
		n.fwd.forwardStack(ws.scratch, b.Sample(w+k*nw))
	}
	n.fwd.smp.hashMany(ws.lasts[:m], ws.hashBuf)
	l := n.fwd.smp.tables()
	ws.ids = ws.ids[:0]
	for k := range m {
		ws.heads[k] = n.fwd.sampleActive(ws.scratch, b.Labels(w+k*nw), ws.hashBuf[k*l:(k+1)*l])
		ws.ids = extend(ws.ids, ws.active)
		ws.offs[k+1] = int32(len(ws.ids))
	}

	ws.plan(n.cfg.OutputDim)
	first := w * n.cfg.OutputDim / nw // concurrent workers sweep apart
	hs, dhs := ws.lasts[:m], ws.lastDhs[:m]
	ws.forward(ks, n.output, hs, first)
	parts := []*stripe{&ws.stripe}
	for k := range m {
		if ws.offs[k] < ws.offs[k+1] {
			loss, bad := n.labelHead(ks, parts, k, len(b.Labels(w+k*nw)))
			ws.loss += loss
			ws.activeSum += int64(ws.offs[k+1] - ws.offs[k])
			ws.nonFinite += n.guardLoss(loss, bad)
		}
	}
	for _, dh := range dhs {
		simd.Zero(dh)
	}
	var step *simd.AdamParams
	if nw == 1 {
		step = &p
	}
	ws.backward(ks, n.output, hs, dhs, first, step)
	for k, dh := range dhs {
		if ws.offs[k] < ws.offs[k+1] {
			n.backward(ws, k, dh, b.Sample(w+k*nw))
		}
	}
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
