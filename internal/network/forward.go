package network

import (
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/quant"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// forwardState is the read-only half of the network: everything the forward
// pass and LSH retrieval consume, none of the optimizer state. Both
// execution paths run on it —
//
//   - training holds a *live* forwardState whose layer views alias the
//     mutable weights (updates are visible batch to batch), and
//   - Predictor snapshots hold a *frozen* forwardState whose views are deep
//     copies and whose sampler is a clone, immutable for its lifetime and
//     therefore safe for any number of concurrent readers.
//
// All per-call mutable state lives in scratch, never here.
type forwardState struct {
	cfg    Config
	hidden *layer.ColWeights
	middle []*layer.RowWeights
	output *layer.RowWeights
	// qout is the quantized serving rendering of the output layer. Exactly
	// one of output/qout is non-nil: quantized predictors (Quantize, or a
	// replica holding an int8 base) drop the f32 view entirely and serve
	// every output-layer pass from the packed rows. Training states never
	// set it.
	qout *quant.RowQ
	// smp is the LSH sampling structure and the shard plan (sampler.go).
	smp *sampler

	// middleAll[i] lists every row id of middle layer i (dense forward).
	middleAll [][]int32
	// dims holds the hidden widths: HiddenDim then HiddenLayers.
	dims []int
	// lastDim is the width of the activation feeding the output layer.
	lastDim int
}

// scratch holds the mutable buffers of one forward pass and its LSH
// retrieval. Training owns one per HOGWILD worker for the whole run (inside
// the worker, stripe.go); Predictors draw them from a sync.Pool per call.
type scratch struct {
	ks *simd.Kernels
	// acts[0] is the first hidden layer's activation; acts[i] the i-th
	// stacked layer's.
	acts   [][]float32
	active []int32
	logits []float32 // serving only; a training worker's are stripe buffers
	dedup  *lsh.Dedup
	rng    *rand.Rand
	// rngSrc is rng's underlying PCG, retained so checkpoints can serialize
	// the random top-up state — part of the exact-resume contract.
	rngSrc *rand.PCG
	// hashBuf holds the per-table bucket hashes, L per sample: one query's
	// on a predictor, one stripe's on a training worker (fitStripe grows
	// it). A sample is hashed once, then every set of the sampler is probed
	// with its fingerprints.
	hashBuf []uint32
	// qa/qsa/qzp hold the quantized activation vector of the current sample
	// on quantized predictors: the last hidden activation rendered as u7
	// codes with its scale and zero point. qa is nil everywhere else.
	qa  []uint8
	qsa float32
	qzp int32
	// qacc holds the integer accumulators of the sampled int8 walk.
	qacc quant.WalkScratch
}

// newScratch sizes a scratch set for this network shape. train leaves out
// what only serving reads (the logits); stream separates the random top-up
// sequences of sibling scratches.
func (f *forwardState) newScratch(train bool, seed, stream uint64) *scratch {
	// Buffers are sized for the worst case (every neuron active): MaxActive
	// caps the usual path, but labels are never dropped, so a pathological
	// sample could exceed it.
	actCap := f.cfg.OutputDim
	src := rand.NewPCG(seed, stream)
	ws := &scratch{
		active: make([]int32, 0, actCap),
		dedup:  lsh.NewDedup(f.cfg.OutputDim),
		rng:    rand.New(src),
		rngSrc: src,
	}
	for _, d := range f.dims {
		ws.acts = append(ws.acts, make([]float32, d))
	}
	if !train {
		ws.logits = make([]float32, actCap)
	}
	// A quantized predictor's output layer reads the last activation as u7
	// codes.
	if f.qout != nil {
		ws.qa = make([]uint8, f.lastDim)
	}
	ws.hashBuf = make([]uint32, f.smp.tables())
	return ws
}

// last returns the activation feeding the output layer.
func (ws *scratch) last() []float32 { return ws.acts[len(ws.acts)-1] }

// forwardStack runs the hidden layer and the dense middle stack, leaving
// the output-layer input in ws.last() and, on a quantized predictor, its u7
// codes in ws.qa/qsa/qzp. Every output-layer pass — exact or sampled —
// starts from here, so the activation is prepared once.
func (f *forwardState) forwardStack(ws *scratch, x sparse.Vector) {
	f.forwardHidden(ws.ks, x, ws.acts)
	if ws.qa != nil {
		ws.qsa, ws.qzp = quant.QuantizeActs(ws.last(), ws.qa)
	}
}

// forwardHidden runs the hidden layer and the dense middle stack over one
// sample: acts[0] receives the first hidden activation, acts[i] the i-th
// stacked layer's. Under the BF16 modes the output layer's input leaves
// rounded through bfloat16, as its activation contract asks: the hidden
// layer rounds its own output, and the last stacked layer's is rounded here.
func (f *forwardState) forwardHidden(ks *simd.Kernels, x sparse.Vector, acts [][]float32) {
	f.hidden.Forward(ks, x, acts[0])
	for i, ml := range f.middle {
		out := acts[i+1]
		ml.ForwardActive(ks, f.middleAll[i], acts[i], nil, out)
		for j := range out { // stacked layers are ReLU
			if out[j] < 0 {
				out[j] = 0
			}
		}
	}
	if len(f.middle) > 0 && f.cfg.Precision != layer.FP32 {
		ks.RoundBF16(acts[len(acts)-1])
	}
}

// sampleActive fills ws.active for one sample: true labels first (never
// dropped), then the LSH candidates of the sample's fingerprints hs (as
// sampler.hash wrote them; unread when the model does not sample through
// LSH), then random top-up to MinActive, capped at MaxActive — one budget
// over the whole layer, however many sets the sampler probes. Under
// NoSampling every row is active: the labels, then every other row
// ascending. Returns the number of label entries at the head of the slice.
func (f *forwardState) sampleActive(ws *scratch, labels []int32, hs []uint32) int {
	ws.active = ws.active[:0]
	ws.dedup.Begin()
	for _, y := range labels {
		if int(y) < f.cfg.OutputDim && !ws.dedup.Seen(y) {
			ws.active = append(ws.active, y)
		}
	}
	nLabels := len(ws.active)
	if f.cfg.NoSampling {
		for id := range int32(f.cfg.OutputDim) {
			if !ws.dedup.Seen(id) {
				ws.active = append(ws.active, id)
			}
		}
		return nLabels
	}

	limit := f.cfg.MaxActive
	if limit > 0 && nLabels > limit {
		limit = nLabels // labels always survive
	}
	if f.smp.sampled() {
		ws.active = f.smp.collect(hs, ws.dedup, ws.active, limit)
	}

	// Random top-up: keeps gradient flowing when buckets run cold early in
	// training (SLIDE's random fill).
	for len(ws.active) < f.cfg.MinActive {
		id := int32(ws.rng.IntN(f.cfg.OutputDim))
		if !ws.dedup.Seen(id) {
			ws.active = append(ws.active, id)
		}
	}
	return nLabels
}

// predictSampled ranks the LSH-retrieved candidate set for one sample and
// returns the top-k ids, highest logit first. Caller guarantees tables are
// present.
func (f *forwardState) predictSampled(ws *scratch, x sparse.Vector, k int) []int32 {
	f.forwardStack(ws, x)
	f.smp.hash(ws.last(), ws.hashBuf)
	f.sampleActive(ws, nil, ws.hashBuf)
	na := len(ws.active)
	if na == 0 {
		return nil
	}
	logits := ws.logits[:na]
	if f.qout != nil {
		f.qout.ForwardActive(ws.ks, ws.active, ws.qa, ws.qsa, ws.qzp, logits, &ws.qacc)
	} else {
		f.output.ForwardActive(ws.ks, ws.active, ws.last(), nil, logits)
	}
	top := metrics.TopK(logits, k)
	out := make([]int32, len(top))
	for i, pos := range top {
		out[i] = ws.active[pos]
	}
	return out
}

// rank selects the top-k ids from a full score vector into pooled storage
// (the caller copies them out): one heap over every row, however many shards
// the model trains on. A non-positive k selects nothing.
func (f *forwardState) rank(ws *scratch, scores []float32, k int) []int32 {
	return metrics.TopKInto(scores, k, ws.active[:0])
}

// ranked is rank copied out of the pooled storage: a fresh slice (empty, not
// nil, when nothing is selected) the caller may retain.
func (f *forwardState) ranked(ws *scratch, scores []float32, k int) []int32 {
	top := f.rank(ws, scores, k)
	out := make([]int32, len(top))
	copy(out, top)
	return out
}
