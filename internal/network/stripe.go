package network

import (
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
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

// lane is one selection stream of a training engine, a HOGWILD worker's or a
// phase-engine shard's: the stripe it fills, the dedup stamps over the rows
// it selects from, and its top-up PCG, a checkpointed stream
// (Network.rngSources).
type lane struct {
	stripe
	dedup  *lsh.Dedup
	rng    *rand.Rand
	rngSrc *rand.PCG
}

// newLane builds a lane selecting from width rows, drawing its top-up from
// the PCG stream (seed, stream).
func newLane(width int, seed, stream uint64) lane {
	src := rand.NewPCG(seed, stream)
	return lane{dedup: lsh.NewDedup(max(width, 1)), rng: rand.New(src), rngSrc: src}
}

// pick fills the stripe with the active sets of samples first, first+stride,
// … of b under budget bud, sample k's fingerprints at hs[k·L:(k+1)·L], in
// sample order, so the top-up draws keep their order; then it plans the walk
// over the rows below bud.hi.
func (ln *lane) pick(f *forwardState, bud budget, b sparse.Batch, first, stride int, hs []uint32) {
	m := (b.Len() - first + stride - 1) / stride
	l := f.smp.tables()
	// Sized before the fill: a batch larger than the last one would index
	// past offs otherwise.
	ln.offs, ln.heads = fit(ln.offs, m+1), fit(ln.heads, m)
	ids := ln.ids[:0]
	for k := range m {
		ids, ln.heads[k] = f.pick(bud, ln.dedup, ln.rng, b.Labels(first+k*stride), hs[k*l:(k+1)*l], ids)
		ln.offs[k+1] = int32(len(ids))
	}
	ln.ids = ids
	ln.plan(int(bud.hi))
}

// samples is the per-sample state of a training engine's share of a batch, a
// HOGWILD worker's stripe or the phase engine's whole batch: sample k's
// activation and activation-gradient stacks [k][layer], views of their first
// and last layers, and the fingerprints of its last activation at
// hashes[k·L:(k+1)·L]. The stacks grow to the most samples seen and stay.
type samples struct {
	acts, dhs      [][][]float32
	acts0, dhs0    [][]float32 // the first hidden layer's (hidden backward)
	lasts, lastDhs [][]float32 // the output layer's input and its gradient
	hashes         []uint32
}

// fit sizes the state for m samples.
func (s *samples) fit(f *forwardState, m int) {
	for len(s.acts) < m {
		acts, dhs := newStack(f.dims), newStack(f.dims)
		s.acts, s.dhs = append(s.acts, acts), append(s.dhs, dhs)
		s.acts0, s.dhs0 = append(s.acts0, acts[0]), append(s.dhs0, dhs[0])
		s.lasts, s.lastDhs = append(s.lasts, acts[len(acts)-1]), append(s.lastDhs, dhs[len(dhs)-1])
	}
	s.hashes = fit(s.hashes, m*f.smp.tables())
}

// worker is one HOGWILD worker's state for the model's life: its lane over
// the whole layer and the per-sample state the staged body keeps from stage
// to stage.
type worker struct {
	lane
	samples

	// loss, activeSum and nonFinite are the worker's partial BatchStats for
	// the batch in flight.
	loss      float64
	activeSum int64
	nonFinite int64
}

// trainStripe runs worker w's share of a batch — samples w, w+nw, … — in
// stages, each finished for every sample of the stripe before the next
// starts, which is sound because no weight changes before its last read:
//
//  1. forward every sample; hash the stripe's output-layer inputs in one
//     HashDenseMany call (SimHash walks its hyperplanes once per tile of
//     simd.WalkTile samples); then pick every sample's active set under the
//     whole layer's budget, in stripe order, so the top-up draws keep their
//     order;
//  2. walk the output layer row-major (stripe.forward): every logit, then
//     the label heads in sample order, then every weight gradient and every
//     sample's input gradient in one pass over the rows (stripe.backward),
//     which also steps each row's ADAM with p when a lone worker (nw == 1)
//     owns every row; shared rows wait for TrainBatch;
//  3. the middle stack and hidden backward, per sample in stripe order.
//
// The bits are those of running each sample end to end in stripe order,
// except that each input gradient sums in row-walk order (AccumulateStripe).
// The share's loss, active-set and non-finite sums are left in the worker.
func (n *Network) trainStripe(ks *simd.Kernels, b sparse.Batch, w, nw int, p simd.AdamParams) {
	ws, f := n.workers[w], n.fwd
	ws.loss, ws.activeSum, ws.nonFinite = 0, 0, 0
	m := (b.Len() - w + nw - 1) / nw
	ws.fit(f, m)

	for k := range m {
		f.forwardHidden(ks, b.Sample(w+k*nw), ws.acts[k])
	}
	f.smp.hashMany(ws.lasts[:m], ws.hashes)
	ws.pick(f, f.layerBudget(), b, w, nw, ws.hashes)

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
	for k := range m {
		if ws.offs[k] < ws.offs[k+1] {
			n.backwardMiddle(ks, ws.acts[k], ws.dhs[k])
			n.hidden.Backward(ks, b.Sample(w+k*nw), ws.acts[k][0], ws.dhs[k][0])
		}
	}
}
