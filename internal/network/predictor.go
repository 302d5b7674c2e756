package network

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/slide-cpu/slide/internal/fanout"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/quant"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// ErrNoSampling is returned by PredictSampled on models built without LSH
// sampling (NoSampling or UniformSampling): there is no candidate structure
// to retrieve from, so exact Predict is the right call.
var ErrNoSampling = errors.New("network: PredictSampled requires an LSH-sampled model")

// Predictor serves inference from one forwardState with per-call scratch
// drawn from a pool. Over a snapshot state (Network.Snapshot) every method
// is safe for unbounded concurrent use, including concurrently with
// continued training on the source network. Over the live state
// (the network's own compatibility path) it inherits the network's
// single-threaded contract with training.
type Predictor struct {
	fwd  *forwardState
	seed uint64
	// single marks the live predictor, whose every entry point has a single
	// caller (the network's contract with training) and so shares the rows
	// of a pass out over GOMAXPROCS goroutines, as PredictBatch and Evaluate
	// do on any predictor. Snapshots serve many callers at once and walk on
	// the caller's goroutine.
	single bool
	steps  int64
	calls  atomic.Uint64
	pool   sync.Pool // *scratch, one per call in flight
	chunks sync.Pool // *chunk, one per exact walk in flight

	// scr is the int8 screen the ranking entry points rank through, built by
	// the first of them (screen); nil where ranking takes the full walk.
	scrOnce sync.Once
	scr     *screen
	// screened counts the samples ranked through scr, refined the rows
	// those scored in f32.
	screened, refined atomic.Uint64
}

func newPredictor(f *forwardState, seed uint64) *Predictor {
	p := &Predictor{fwd: f, seed: seed}
	p.pool.New = func() any { return f.newScratch() }
	p.chunks.New = func() any {
		c := &chunk{f: f}
		c.scoreTile = c.score // bound once: handing it to the group allocates nothing per walk
		return c
	}
	return p
}

// Snapshot produces an immutable Predictor over a copy of the current
// weights and a clone of the LSH tables. Call it between TrainBatch calls
// (the same contract as Save); afterwards the Predictor is fully
// independent — training continues on the network without ever touching
// the snapshot, and any number of goroutines may serve from it.
//
// Under EnableDeltaTracking the copy is copy-on-write against the previous
// snapshot: only rows the touch journal names since the last Snapshot are
// duplicated, the rest share backing arrays with the (immutable) previous
// views — publish cost drops from O(model) to O(touched rows).
func (n *Network) Snapshot() *Predictor {
	p, _ := n.SnapshotDelta()
	return p
}

// snapshotSeed derives the predictor seed at a given optimizer step: the
// step is folded in so successive snapshots draw different (still
// deterministic) random top-up streams. A replica reconstructing a
// predictor at the same step derives the same seed — part of the
// bit-identity contract.
func snapshotSeed(cfg *Config, step int64) uint64 {
	return splitSeed(cfg.Seed, 6) ^ uint64(step)
}

// Steps returns the optimizer step count of the source network at snapshot
// time — serving observability for "how fresh is this snapshot".
func (p *Predictor) Steps() int64 { return p.steps }

// Config returns the configuration of the snapshotted network.
func (p *Predictor) Config() Config { return p.fwd.cfg }

// Sampled reports whether the predictor carries LSH tables, i.e. whether
// PredictSampled is available.
func (p *Predictor) Sampled() bool { return p.fwd.smp.sampled() }

func (p *Predictor) get() *scratch {
	ws := p.pool.Get().(*scratch)
	ws.ks = simd.Active()
	// Reseed the random top-up stream per call: sampled answers become a
	// pure function of (predictor seed, call index, query) instead of the
	// scratch's pooling history — sync.Pool is free to drop and recreate
	// scratches (it does so randomly under the race detector), and two
	// predictors at the same seed and call sequence still draw identical
	// top-ups. The replica bit-identity contract relies on this.
	ws.rngSrc.Seed(p.seed, p.calls.Add(1))
	return ws
}

// fusedChunk bounds how many samples one pass of the exact walk holds in
// flight: each sample pins a score vector (OutputDim floats) and a copy of
// its activation for the duration of its chunk, so an unbounded client batch
// must not turn into unbounded server memory. 64 keeps the amortization (the
// weight stream is read once per 64 samples instead of once per sample)
// while capping the pinned memory at 64 x OutputDim floats.
const fusedChunk = 64

// chunk is the state of one exact walk: per sample in flight, what the output
// layer's range walk takes of it — the last activation, its u7 codes where
// the walk is in int8, its screen bound where it is screened — and the score
// vector with, where screened, its group maxima, in parallel slices the chunk
// owns and grows to the largest pass it has carried. Nothing here depends on
// which output representation that is.
type chunk struct {
	f      *forwardState
	ks     *simd.Kernels
	scr    *screen // the walk's screen, or nil: scores are then the served logits
	n      int     // samples in flight
	tiles  int     // row tiles of the pass in flight
	rows   int     // rows the walk's screened ranking refined so far
	hs     [][]float32
	qas    [][]uint8
	sas    []float32
	zps    []int32
	bounds []sampleBound
	scores [][]float32
	maxes  [][]float32   // the int8 scores' simd.MaxGroup maxima, screened walks only
	tile   []tileScratch // per row tile of the pass in flight

	group     fanout.Group
	scoreTile func(t int)
}

// tileScratch is what one row tile's goroutine needs besides the chunk's
// shared operands, whichever representation it scores: the f32 walk's
// windows into the score vectors, the int8 walk's integer accumulators.
type tileScratch struct {
	win [simd.WalkTile][]float32
	q   quant.WalkScratch
}

// hold copies the activation forwardStack left in ws into sample i's slot,
// growing the chunk by one sample if i is its first. A screened walk renders
// it in u7 codes here and computes its screen bound.
func (c *chunk) hold(i int, ws *scratch) {
	if i == len(c.scores) {
		c.hs = append(c.hs, make([]float32, c.f.lastDim))
		c.qas = append(c.qas, make([]uint8, c.f.lastDim))
		c.sas, c.zps = append(c.sas, 0), append(c.zps, 0)
		c.bounds = append(c.bounds, sampleBound{})
		out := c.f.cfg.OutputDim
		buf := make([]float32, out+(out+simd.MaxGroup-1)/simd.MaxGroup) // the scores, then their maxima
		c.scores, c.maxes = append(c.scores, buf[:out:out]), append(c.maxes, buf[out:])
	}
	h := c.hs[i]
	copy(h, ws.last())
	switch {
	case c.scr != nil:
		c.sas[i], c.zps[i] = quant.QuantizeActs(h, c.qas[i])
		c.bounds[i] = c.scr.bound(h, c.qas[i], c.sas[i], c.zps[i])
	case ws.qa != nil:
		copy(c.qas[i], ws.qa)
		c.sas[i], c.zps[i] = ws.qsa, ws.qzp
	}
}

// score fills row tile t of every in-flight sample's scores — the one place
// the exact pass asks which output representation it walks: the packed rows
// of a quantized predictor or of the walk's screen (with the scores' group
// maxima), else the f32 or BF16 rows.
func (c *chunk) score(t int) {
	f, n := c.f, c.n
	lo, hi := tileRows(t, c.tiles, f.cfg.OutputDim)
	switch {
	case c.scr != nil:
		c.scr.q.ForwardAllBatchRange(c.ks, c.qas[:n], c.sas[:n], c.zps[:n], c.scores[:n], c.maxes[:n], lo, hi, &c.tile[t].q)
	case f.qout != nil:
		f.qout.ForwardAllBatchRange(c.ks, c.qas[:n], c.sas[:n], c.zps[:n], c.scores[:n], nil, lo, hi, &c.tile[t].q)
	default:
		f.output.ForwardAllBatchRange(c.ks, c.hs[:n], c.scores[:n], lo, hi, &c.tile[t].win)
	}
}

// tileRows is row tile t's range of out rows when tiles goroutines share
// them: as even a split as whole simd.MaxGroup groups allow, so that every
// tile of a screened walk starts on a group boundary.
func tileRows(t, tiles, out int) (lo, hi int) {
	per := ((out+tiles-1)/tiles + simd.MaxGroup - 1) &^ (simd.MaxGroup - 1)
	return min(t*per, out), min((t+1)*per, out)
}

// rank returns held sample j's top-k ids, highest first, in ws's pooled
// storage: TopKInto over its scores, or, on a screened walk, the screen's
// ranking, whose labels are the same.
func (c *chunk) rank(ws *scratch, j, k int) []int32 {
	if c.scr == nil {
		return metrics.TopKInto(c.scores[j], k, ws.active[:0])
	}
	top, rows := c.scr.rank(ws.ks, c.f.output, &c.bounds[j], c.hs[j], c.scores[j], c.maxes[j], k, ws)
	c.rows += rows
	return top
}

// walk is the exact forward pass, and the only one: every entry point below
// that scores the whole output layer is a call of it. With one scratch for
// the whole call, per chunk of up to fusedChunk samples it forwards each
// hidden stack (which also prepares the activation for the output layer) and
// holds the result, scores every output row of every held sample tile by
// tile through the layer's blocked range walk, and hands each held sample —
// its slot j in the chunk, with the scratch, for ranking — to emit, in input
// order, on the calling goroutine. A single query is a chunk of one.
//
// Given a screen, the walk scores the screen's packed int8 rows instead of
// the f32 ones, and the chunk's rank refines what can reach the top k.
//
// tiles is how many goroutines share the rows of a pass: 1 for the serving
// entry points, which scale across concurrent calls, GOMAXPROCS for the
// single-caller ones.
func (p *Predictor) walk(xs []sparse.Vector, tiles int, scr *screen, emit func(i int, ws *scratch, c *chunk, j int)) {
	f := p.fwd
	ws, c := p.get(), p.chunks.Get().(*chunk)
	defer p.pool.Put(ws)
	defer p.chunks.Put(c)
	c.ks, c.tiles, c.scr, c.rows = ws.ks, max(tiles, 1), scr, 0
	if len(c.tile) < c.tiles {
		c.tile = make([]tileScratch, c.tiles)
	}
	for lo := 0; lo < len(xs); lo += fusedChunk {
		c.n = min(fusedChunk, len(xs)-lo)
		for i, x := range xs[lo : lo+c.n] {
			f.forwardStack(ws, x)
			c.hold(i, ws)
		}
		c.group.Run(c.tiles, c.scoreTile)
		for j := range c.n {
			emit(lo+j, ws, c, j)
		}
	}
	if scr != nil {
		p.screened.Add(uint64(len(xs)))
		p.refined.Add(uint64(c.rows))
	}
}

// screen returns the predictor's int8 screen, built on first use, or nil
// where ranking takes the full walk: the live predictor, whose weights
// change; a quantized one, which ranks its own int8 scores; a snapshot whose
// rows cannot be quantized.
func (p *Predictor) screen() *screen {
	if p.single || p.fwd.qout != nil {
		return nil
	}
	p.scrOnce.Do(func() { p.scr = newScreen(p.fwd.output) })
	return p.scr
}

// ranks hands emit each sample's top-k(i) ids, highest first, in pooled
// storage: the walk through the predictor's screen where it has one.
func (p *Predictor) ranks(xs []sparse.Vector, tiles int, k func(i int) int, emit func(i int, top []int32)) {
	p.walk(xs, tiles, p.screen(), func(i int, ws *scratch, c *chunk, j int) { emit(i, c.rank(ws, j, k(i))) })
}

// ScreenStats reports how many samples the ranking entry points ranked
// through the int8 screen and how many rows they scored in f32 for them —
// queries times OutputDim would be the full walk's.
func (p *Predictor) ScreenStats() (queries, rows uint64) {
	return p.screened.Load(), p.refined.Load()
}

// tiles is the tile count of an entry point: GOMAXPROCS when it has a single
// caller — by its own contract, or because the predictor is the live one —
// and 1 when it serves concurrent callers.
func (p *Predictor) tiles(single bool) int {
	if single || p.single {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// Scores computes the full output-layer logits for one sample into out
// (len OutputDim) — the exact forward pass.
func (p *Predictor) Scores(x sparse.Vector, out []float32) {
	if len(out) != p.fwd.cfg.OutputDim {
		panic("network: Scores buffer must have OutputDim length")
	}
	p.walk([]sparse.Vector{x}, p.tiles(false), nil, func(_ int, _ *scratch, c *chunk, j int) { copy(out, c.scores[j]) })
}

// topK ranks every sample of xs exactly: out[i] holds the top-k(i) label
// ids of xs[i], highest first, in a fresh slice the caller may retain (the
// ranking itself runs in pooled storage). A non-positive k yields an empty
// list.
func (p *Predictor) topK(xs []sparse.Vector, tiles int, k func(i int) int) [][]int32 {
	out := make([][]int32, len(xs))
	p.ranks(xs, tiles, k, func(i int, top []int32) { out[i] = clone(top) })
	return out
}

// clone copies a ranking out of pooled storage: a fresh slice, empty and
// not nil when nothing is selected.
func clone(top []int32) []int32 {
	out := make([]int32, len(top))
	copy(out, top)
	return out
}

// Predict returns the top-k scoring label ids for one sample, highest
// first. The full output layer is ranked (exact inference); results are
// bit-identical to Network.Predict on the same weights.
func (p *Predictor) Predict(x sparse.Vector, k int) []int32 {
	var out []int32
	p.ranks([]sparse.Vector{x}, p.tiles(false), func(int) int { return k }, func(_ int, top []int32) { out = clone(top) })
	return out
}

// PredictSampled returns the top-k label ids ranked only over the LSH-
// retrieved candidate set — sub-linear inference, the deployment-time
// counterpart of SLIDE's sampled training. Returns ErrNoSampling for
// models built without LSH tables.
func (p *Predictor) PredictSampled(x sparse.Vector, k int) ([]int32, error) {
	if !p.fwd.smp.sampled() {
		return nil, ErrNoSampling
	}
	ws := p.get()
	defer p.pool.Put(ws)
	return p.fwd.predictSampled(ws, x, k), nil
}

// PredictBatch runs exact top-k prediction over a batch of samples for a
// single caller: the exact walk with the rows of every pass shared out over
// GOMAXPROCS goroutines. out[i] corresponds to xs[i] and is bit-identical
// to Predict(xs[i], k).
func (p *Predictor) PredictBatch(xs []sparse.Vector, k int) [][]int32 {
	return p.topK(xs, p.tiles(true), func(int) int { return k })
}

// PredictBatchK runs exact top-k prediction over a coalesced micro-batch
// with per-sample k: out[i] holds the top-ks[i] labels for xs[i]. It is the
// exact walk on the caller's goroutine — the output weight matrix streams
// from memory once per chunk of up to fusedChunk samples instead of once
// per sample, which is what serving batches exist for — and per-sample
// rankings are bit-identical to Predict on the same weights. On an f32 or
// BF16 snapshot the walk is the int8 screen's, and only the rows that can
// reach a sample's top k are scored in f32; the labels are the full f32
// walk's.
//
// The serving pipeline runs one PredictBatchK per batcher worker and scales
// across workers, the same across-calls concurrency model as Predict. Use
// PredictBatch when a single caller has the machine to itself.
func (p *Predictor) PredictBatchK(xs []sparse.Vector, ks []int) [][]int32 {
	return p.topK(xs, p.tiles(false), func(i int) int { return ks[i] })
}

// Evaluate returns mean Precision@k over the first n samples of b — the
// fraction of each sample's k top predictions that are true labels — for a
// single caller (see PredictBatch). Per-sample precisions are summed in
// sample order, so the result does not depend on GOMAXPROCS. No samples, or
// a non-positive k, score 0.
func (p *Predictor) Evaluate(b sparse.Batch, n, k int) float64 {
	if n < 1 || k < 1 {
		return 0
	}
	xs := make([]sparse.Vector, n)
	for i := range xs {
		xs[i] = b.Sample(i)
	}
	var sum float64
	p.ranks(xs, p.tiles(true), func(int) int { return k }, func(i int, top []int32) {
		hits := 0
		for _, id := range top {
			if slices.Contains(b.Labels(i), id) {
				hits++
			}
		}
		sum += float64(hits) / float64(k)
	})
	return sum / float64(n)
}
