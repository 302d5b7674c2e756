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
}

// scratch holds the mutable buffers of one serving call: a forward pass, its
// LSH retrieval and, on the sampled path, the selection and its logits.
// Predictors draw them from a sync.Pool per call.
type scratch struct {
	ks *simd.Kernels
	// acts[0] is the first hidden layer's activation; acts[i] the i-th
	// stacked layer's.
	acts   [][]float32
	active []int32
	logits []float32
	dedup  *lsh.Dedup
	rng    *rand.Rand
	// rngSrc is rng's underlying PCG, which Predictor.get reseeds per call.
	rngSrc *rand.PCG
	// hashBuf holds one query's per-table bucket hashes: it is hashed once,
	// then every set of the sampler is probed with its fingerprints.
	hashBuf []uint32
	// qa/qsa/qzp hold the quantized activation vector of the current sample
	// on quantized predictors: the last hidden activation rendered as u7
	// codes with its scale and zero point. qa is nil everywhere else.
	qa  []uint8
	qsa float32
	qzp int32
	// qacc holds the integer accumulators of the sampled int8 walk.
	qacc quant.WalkScratch
	// The screened ranking's buffers (screen.rank): the top-k positions,
	// the heaps of the k best int8 scores and lower ends, and each
	// collected row's upper end. Each grows to the largest call it served.
	top  []int32
	best []float32
	lows []float64
	hi   []float64
}

// newScratch sizes a scratch set for this network shape. Its top-up stream
// is left unseeded: Predictor.get seeds it per call.
func (f *forwardState) newScratch() *scratch {
	// Buffers are sized for the worst case (every neuron active): MaxActive
	// caps the usual path, but labels are never dropped, so a pathological
	// sample could exceed it.
	actCap := f.cfg.OutputDim
	src := rand.NewPCG(0, 0)
	ws := &scratch{
		active:  make([]int32, 0, actCap),
		logits:  make([]float32, actCap),
		dedup:   lsh.NewDedup(f.cfg.OutputDim),
		rng:     rand.New(src),
		rngSrc:  src,
		hashBuf: make([]uint32, f.smp.tables()),
		acts:    newStack(f.dims),
	}
	// A quantized predictor's output layer reads the last activation as u7
	// codes.
	if f.qout != nil {
		ws.qa = make([]uint8, f.lastDim)
	}
	return ws
}

// newStack allocates one activation (or activation-gradient) buffer per
// hidden width.
func newStack(dims []int) [][]float32 {
	stack := make([][]float32, len(dims))
	for i, d := range dims {
		stack[i] = make([]float32, d)
	}
	return stack
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
		bf16.RoundSlice(acts[len(acts)-1])
	}
}

// layerBudget is the whole output layer's selection budget: every row, every
// set of the sampler, MinActive and MaxActive. HOGWILD training and sampled
// serving select under it with one dedup over the whole layer.
func (f *forwardState) layerBudget() budget {
	return budget{hi: int32(f.cfg.OutputDim), sets: f.smp.sets, floor: f.cfg.MinActive, cap: f.cfg.MaxActive}
}

// pick is the active-set selection, the one both training engines and sampled
// serving run: it appends one sample's active rows under budget b to dst and
// returns dst and the number of label entries at the head of what it
// appended. The labels in [lo, hi) come first, deduplicated in list order and
// never dropped. Under NoSampling every other row of the range follows in
// ascending order. Otherwise the LSH candidates of the sample's fingerprints
// hs follow, probed set by set in b's order and capped at max(cap, labels)
// appended ids; then random top-up draws lo + IntN(hi−lo) from rng fill to
// the floor. d stamps ids relative to lo, so it spans hi − lo ids.
func (f *forwardState) pick(b budget, d *lsh.Dedup, rng *rand.Rand, labels []int32, hs []uint32, dst []int32) ([]int32, int) {
	start := len(dst)
	d.Begin()
	for _, y := range labels {
		if y >= b.lo && y < b.hi && !d.Seen(y-b.lo) {
			dst = append(dst, y)
		}
	}
	nLabels := len(dst) - start
	if f.cfg.NoSampling {
		for id := b.lo; id < b.hi; id++ {
			if !d.Seen(id - b.lo) {
				dst = append(dst, id)
			}
		}
		return dst, nLabels
	}
	limit := 0
	if b.cap > 0 {
		limit = start + max(b.cap, nLabels) // labels always survive
	}
	for _, ts := range b.sets {
		dst = ts.Collect(hs, d, b.lo, dst, limit)
	}
	// Random top-up: keeps gradient flowing when buckets run cold early in
	// training (SLIDE's random fill).
	for len(dst)-start < b.floor {
		id := b.lo + int32(rng.IntN(int(b.hi-b.lo)))
		if !d.Seen(id - b.lo) {
			dst = append(dst, id)
		}
	}
	return dst, nLabels
}

// predictSampled ranks the LSH-retrieved candidate set for one sample and
// returns the top-k ids, highest logit first. Caller guarantees tables are
// present.
func (f *forwardState) predictSampled(ws *scratch, x sparse.Vector, k int) []int32 {
	f.forwardStack(ws, x)
	f.smp.hash(ws.last(), ws.hashBuf)
	ws.active, _ = f.pick(f.layerBudget(), ws.dedup, ws.rng, nil, ws.hashBuf, ws.active[:0])
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
