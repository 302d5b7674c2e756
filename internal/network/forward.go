package network

import (
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/bf16"
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
	// all is the precomputed full active set for NoSampling.
	all []int32
}

// scratch holds the mutable buffers of one forward (and, for training
// workers, backward) pass. Training owns one per HOGWILD worker for the
// whole run; Predictors draw them from a sync.Pool per call.
type scratch struct {
	ks *simd.Kernels
	// acts[0] is the first hidden layer's activation; acts[i] the i-th
	// stacked layer's. dhs mirror them with gradients (training only).
	acts   [][]float32
	dhs    [][]float32
	hBF    []bf16.BF16 // bfloat16 view of the last activation
	active []int32
	logits []float32
	probs  []float32 // training only
	dedup  *lsh.Dedup
	rng    *rand.Rand
	// rngSrc is rng's underlying PCG, retained so checkpoints can serialize
	// the random top-up state — part of the exact-resume contract.
	rngSrc *rand.PCG
	// hashBuf holds the per-table bucket hashes of one query: the sample is
	// hashed once, then every set of the sampler is probed with them.
	hashBuf []uint32
	// shardTop and shardLists are rank's per-shard selections on a model of
	// several shards: shard s ranks into its own row range of shardTop, and
	// shardLists[s] is the slice of it that came back.
	shardTop   []int32
	shardLists [][]int32
	// qa/qsa/qzp hold the quantized activation vector of the current sample
	// on quantized predictors: the last hidden activation rendered as u7
	// codes with its scale and zero point. qa is nil everywhere else.
	qa  []uint8
	qsa float32
	qzp int32
	// qacc holds the integer accumulators of the sampled int8 walk.
	qacc quant.WalkScratch
	// loss, activeSum and nonFinite are one HOGWILD worker's partial
	// BatchStats for the batch in flight (training only).
	loss      float64
	activeSum int64
	nonFinite int64
}

// newScratch sizes a scratch set for this network shape. train additionally
// allocates the backward buffers; stream separates the random top-up
// sequences of sibling scratches.
func (f *forwardState) newScratch(train bool, seed, stream uint64) *scratch {
	// Buffers are sized for the worst case (every neuron active): MaxActive
	// caps the usual path, but labels are never dropped, so a pathological
	// sample could exceed it.
	actCap := f.cfg.OutputDim
	src := rand.NewPCG(seed, stream)
	ws := &scratch{
		active: make([]int32, 0, actCap),
		logits: make([]float32, actCap),
		dedup:  lsh.NewDedup(f.cfg.OutputDim),
		rng:    rand.New(src),
		rngSrc: src,
	}
	for _, d := range f.dims {
		ws.acts = append(ws.acts, make([]float32, d))
		if train {
			ws.dhs = append(ws.dhs, make([]float32, d))
		}
	}
	if train {
		ws.probs = make([]float32, actCap)
	}
	// The output layer reads the last activation in its own rendering: u7
	// codes on a quantized predictor, bfloat16 under the BF16 modes.
	if f.qout != nil {
		ws.qa = make([]uint8, f.lastDim)
	} else if f.cfg.Precision != layer.FP32 {
		ws.hBF = make([]bf16.BF16, f.lastDim)
	}
	if f.smp.sampled() {
		ws.hashBuf = make([]uint32, f.smp.sets[0].Tables())
	}
	if f.smp.plan.s > 1 && !train {
		ws.shardTop = make([]int32, f.cfg.OutputDim)
		ws.shardLists = make([][]int32, f.smp.plan.s)
	}
	return ws
}

// last returns the activation feeding the output layer.
func (ws *scratch) last() []float32 { return ws.acts[len(ws.acts)-1] }

// dhLast returns the gradient buffer for the output layer's input.
func (ws *scratch) dhLast() []float32 { return ws.dhs[len(ws.dhs)-1] }

// forwardStack runs the hidden layer and the dense middle stack, leaving
// the output-layer input in ws.last() and, where the output layer reads
// another rendering of it, preparing that too: ws.hBF under the BF16 modes,
// ws.qa/qsa/qzp on a quantized predictor. Every output-layer pass — exact
// or sampled — starts from here, so the activation is prepared once.
func (f *forwardState) forwardStack(ws *scratch, x sparse.Vector) {
	f.forwardHidden(ws.ks, x, ws.acts)
	if ws.qa != nil {
		ws.qsa, ws.qzp = quant.QuantizeActs(ws.last(), ws.qa)
	} else if ws.hBF != nil {
		// Table-resolved pack kernel: VCVTNEPS2BF16 on AVX512-BF16 hosts,
		// the software converter elsewhere.
		ws.ks.PackBF16(ws.hBF, ws.last())
	}
}

// forwardHidden runs the hidden layer and the dense middle stack over one
// sample: acts[0] receives the first hidden activation, acts[i] the i-th
// stacked layer's.
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
}

// sampleActive fills ws.active for one sample: true labels first (never
// dropped), then LSH candidates, then random top-up to MinActive, capped at
// MaxActive — one budget over the whole layer, however many sets the sampler
// probes. Returns the number of label entries at the head of the slice.
func (f *forwardState) sampleActive(ws *scratch, labels []int32) int {
	ws.active = ws.active[:0]
	ws.dedup.Begin()
	for _, y := range labels {
		if int(y) < f.cfg.OutputDim && !ws.dedup.Seen(y) {
			ws.active = append(ws.active, y)
		}
	}
	nLabels := len(ws.active)

	limit := f.cfg.MaxActive
	if limit > 0 && nLabels > limit {
		limit = nLabels // labels always survive
	}
	if f.smp.sampled() {
		f.smp.hash(ws.last(), ws.hashBuf)
		ws.active = f.smp.collect(ws.hashBuf, ws.dedup, ws.active, limit)
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
	f.sampleActive(ws, nil)
	na := len(ws.active)
	if na == 0 {
		return nil
	}
	logits := ws.logits[:na]
	if f.qout != nil {
		f.qout.ForwardActive(ws.ks, ws.active, ws.qa, ws.qsa, ws.qzp, logits, &ws.qacc)
	} else {
		f.output.ForwardActive(ws.ks, ws.active, ws.last(), ws.hBF, logits)
	}
	top := metrics.TopK(logits, k)
	out := make([]int32, len(top))
	for i, pos := range top {
		out[i] = ws.active[pos]
	}
	return out
}

// rank selects the top-k ids from a full score vector into pooled storage
// (the caller copies them out). A one-shard model runs the single-heap
// selection; several shards run the scatter-gather path — a per-shard
// TopKInto over each contiguous score range, then the k-way TopKMergeInto —
// which is bit-identical to the single heap because the contiguous ranges
// map local-position ties monotonically onto global-id ties (the merge fuzz
// test in metrics proves the comparator equivalence). A non-positive k
// selects nothing on either path.
func (f *forwardState) rank(ws *scratch, scores []float32, k int) []int32 {
	if f.smp.plan.s == 1 {
		return metrics.TopKInto(scores, k, ws.active[:0])
	}
	for s := range ws.shardLists {
		lo, hi := f.smp.plan.bounds[s], f.smp.plan.bounds[s+1]
		l := metrics.TopKInto(scores[lo:hi], k, ws.shardTop[lo:lo:hi])
		for i := range l {
			l[i] += lo
		}
		ws.shardLists[s] = l
	}
	return metrics.TopKMergeInto(scores, ws.shardLists, k, ws.active[:0])
}

// ranked is rank copied out of the pooled storage: a fresh slice (empty, not
// nil, when nothing is selected) the caller may retain.
func (f *forwardState) ranked(ws *scratch, scores []float32, k int) []int32 {
	top := f.rank(ws, scores, k)
	out := make([]int32, len(top))
	copy(out, top)
	return out
}
