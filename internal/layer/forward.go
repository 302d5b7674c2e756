package layer

import (
	"sync/atomic"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Read-only forward views. The forward-pass math for both layer kinds lives
// on ColWeights/RowWeights — parameter storage plus the forward kernels,
// nothing mutable. A view comes in two flavors:
//
//   - ForwardView aliases the live training storage. The training loop and
//     the single-threaded Model inference path consume this one; it sees
//     every ApplyAdam update and inherits the layer's concurrency contract
//     (no forward concurrent with weight updates).
//   - SnapshotWeights deep-copies the parameters into fresh contiguous
//     storage. Predictor snapshots consume this one: it never changes after
//     construction, so any number of goroutines may forward through it while
//     training continues on the source layer.
//
// ADAM moments, gradients, and the touched set are training state and are
// never part of a view.

// ColWeights is a read-only forward view of a ColLayer (column-major hidden
// layer): weights, bias, activation, precision.
type ColWeights struct {
	// In is the input (sparse feature) dimension; Out the neuron count.
	In, Out int

	prec Precision
	act  Activation
	vecs store // In columns of Out weights: vecs[j][i] = W[i][j]
	bias []float32
}

// ForwardView returns a view aliasing the layer's live storage. It reflects
// every subsequent weight update; the caller must not forward through it
// concurrently with ApplyAdam.
func (l *ColLayer) ForwardView() *ColWeights { return &l.fwd }

// SnapshotWeights deep-copies the current parameters into an immutable
// contiguous view. Do not call concurrently with ApplyAdam (same contract
// as Serialize); the returned view is safe for unlimited concurrent reads
// afterwards.
func (l *ColLayer) SnapshotWeights() *ColWeights { return l.SnapshotWeightsCOW(nil, nil) }

// Precision returns the storage precision of the view.
func (w *ColWeights) Precision() Precision { return w.prec }

// Forward computes h = act(Wx + b) into h (len Out) using the resolved
// kernel table ks. Under the BF16 activation modes the result is
// additionally rounded through bfloat16, so h carries exactly the values a
// hardware BF16 pipeline would produce.
func (w *ColWeights) Forward(ks *simd.Kernels, x sparse.Vector, h []float32) {
	if len(h) != w.Out {
		panic("layer: ColWeights.Forward output size mismatch")
	}
	copy(h, w.bias)
	if wb := w.vecs.widening(1); wb != nil {
		// bfloat16 columns: widen each non-zero's column, then the float32
		// Axpy — bit for bit what GatherAxpy does over float32 columns.
		for k, j := range x.Indices {
			ks.Axpy(x.Values[k], w.vecs.widen(ks, int(j), wb), h)
		}
		wb.release()
	} else {
		// Algorithm 2 over all of x's non-zeros in one call: h accumulates
		// in registers while the listed columns stream past.
		ks.GatherAxpy(x.Values, x.Indices, w.vecs.f32, h)
	}
	if w.act == ReLU {
		for i := range h {
			if h[i] < 0 {
				h[i] = 0
			}
		}
	}
	if w.prec != FP32 {
		ks.RoundBF16(h)
	}
}

// RowWeights is a read-only forward view of a RowLayer (row-major wide
// layer): weights, bias, precision.
//
// The activation contract of every pass that takes h: under the BF16 modes
// the caller passes h already rounded through bfloat16 (ColWeights.Forward
// does it, and so does the network's forward of a stacked model), so every
// precision runs the float32 kernels on h. BF16Act is float32 arithmetic on
// bfloat16-valued activations; BF16Both is the same on bfloat16 rows widened
// on load, whose products with h are exact in float32.
//
// ForwardActive, ForwardAll and ForwardAllBatch (and RowLayer's
// ForwardActive, Accumulate and ForwardAll) keep an hBF parameter that
// nothing reads: the frozen benchmark probes pass it, and it goes with them
// when they are next changed (ROADMAP item 1).
type RowWeights struct {
	// In is the input (hidden) dimension; Out the neuron/label count.
	In, Out int

	prec Precision
	vecs store // Out rows of In weights
	bias []float32
}

// ForwardView returns a view aliasing the layer's live storage. It reflects
// every subsequent weight update; the caller must not forward through it
// concurrently with ApplyAdam.
func (l *RowLayer) ForwardView() *RowWeights { return &l.fwd }

// SnapshotWeights deep-copies the current parameters into an immutable
// contiguous view. Do not call concurrently with ApplyAdam; the returned
// view is safe for unlimited concurrent reads afterwards.
func (l *RowLayer) SnapshotWeights() *RowWeights { return l.SnapshotWeightsCOW(nil, nil) }

// Precision returns the storage precision of the view.
func (w *RowWeights) Precision() Precision { return w.prec }

// ForwardActive fills logits[k] with neuron active[k]'s pre-activation for
// the dense input h: the float32 Dot of its row — bfloat16 rows widened on
// load — and h, plus the bias, computed with the resolved kernel table ks.
// The package tests' refLogit is that definition, one row at a time. Over
// float32 rows this is one DotManyBias call over the whole active set: on
// the assembly tiers a single routine that keeps h in vector registers and
// streams the listed rows past it, every logit still bit-identical to
// refLogit's because each row runs the per-row dot's accumulators, block
// order and reduction (see DESIGN.md "Active-set walks: one call per
// sample"). Over bfloat16 rows it is refLogit's own loop: widen the row,
// then Dot. hBF is unread (see the activation contract above).
func (w *RowWeights) ForwardActive(ks *simd.Kernels, active []int32, h []float32, hBF []bf16.BF16, logits []float32) {
	if len(logits) < len(active) {
		panic("layer: ForwardActive logits buffer too short")
	}
	wb := w.vecs.widening(1)
	if wb == nil {
		ks.DotManyBias(w.vecs.f32, w.bias, active, h, logits)
		return
	}
	for k, id := range active {
		logits[k] = ks.Dot(w.vecs.widen(ks, int(id), wb), h) + w.bias[id]
	}
	wb.release()
}

// rowBlockBytes is how many bytes of weight rows one block of the exact walk
// covers. A block is re-read once per sample of the chunk, so it has to stay
// cache-resident while the samples stream over it; 128 KiB sits inside a
// private L2 on every host this runs on and is long enough (256 rows at
// hidden width 128) to amortize the primitive's call. It is bytes, not rows,
// because the footprint is what matters: a row is 4·In or In bytes
// depending on the representation, and a bfloat16 row is walked widened.
const rowBlockBytes = 128 << 10

// BlockRows returns how many rows of rowBytes bytes each one block of the
// exact walk covers (at least one).
func BlockRows(rowBytes int) int { return max(1, rowBlockBytes/max(1, rowBytes)) }

var iotaIDs atomic.Pointer[[]int32]

// Iota returns the id list 0, 1, …, n-1 — every row of a layer, which the
// exact walk slices its blocks from. The list is shared by all callers and
// must not be written.
func Iota(n int) []int32 {
	if p := iotaIDs.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	// Racing growers each publish a complete list; if a shorter one lands
	// last, the next longer request rebuilds it.
	iotaIDs.Store(&ids)
	return ids
}

// ForwardAll computes every neuron's logit into out (len Out) — the exact
// walk for a batch of one, on the caller's goroutine. hBF and workers are
// unread: the benchmark's frozen probes still pass them (ROADMAP item 1).
func (w *RowWeights) ForwardAll(ks *simd.Kernels, h []float32, hBF []bf16.BF16, out []float32, workers int) {
	if len(out) != w.Out {
		panic("layer: ForwardAll output size mismatch")
	}
	w.ForwardAllBatchRange(ks, [][]float32{h}, [][]float32{out}, 0, w.Out, nil)
}

// ForwardAllBatch computes every neuron's logit for a coalesced batch of
// dense inputs: outs[s][i] is neuron i's logit for hs[s] —
// ForwardAllBatchRange over every row. The walk runs on the caller's goroutine: the serving pipeline
// parallelizes across concurrent batch calls, not within one. hBFs is
// unread.
func (w *RowWeights) ForwardAllBatch(ks *simd.Kernels, hs [][]float32, hBFs [][]bf16.BF16, outs [][]float32) {
	for s := range outs {
		if len(outs[s]) != w.Out {
			panic("layer: ForwardAllBatch output size mismatch")
		}
	}
	w.ForwardAllBatchRange(ks, hs, outs, 0, w.Out, nil)
}

// ForwardAllBatchRange is the exact walk: outs[s][i] is neuron i's logit
// for hs[s] (the package tests' refLogit) for every row i in [lo, hi) and
// every sample s. Rows are taken a block at a
// time (BlockRows of them, sized by their float32 footprint) and each block
// is scored against every sample before the next is touched — so the weight
// matrix streams from memory once per chunk instead of once per sample, and
// a bfloat16 block is widened once per chunk. A block meets the samples a
// tile at a time: one DotManyBiasBatch call scores it against simd.WalkTile
// of them, each row loaded once for the tile; a lone last sample — so also a
// single query — takes one DotManyBias call, the activation in registers on
// the assembly tiers. Either way every logit is the one refLogit computes.
// Callers tile the rows by calling it concurrently over disjoint ranges into
// shared outs (shards, evaluation workers); the assembled scores are the
// same bits at any tiling.
//
// win is scratch for the tile's windows into outs, one per concurrent
// caller; nil allocates it when a tile is formed.
func (w *RowWeights) ForwardAllBatchRange(ks *simd.Kernels, hs, outs [][]float32, lo, hi int, win *[simd.WalkTile][]float32) {
	if len(outs) != len(hs) {
		panic("layer: ForwardAllBatchRange batch size mismatch")
	}
	if lo < 0 || hi > w.Out || lo > hi {
		panic("layer: ForwardAllBatchRange row range out of bounds")
	}
	block := BlockRows(4 * w.In)
	wb := w.vecs.widening(min(block, hi-lo))
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		rows, bias, ids := w.vecs.block(ks, b, e, wb), w.bias[b:e], Iota(e-b)
		for s := 0; s < len(outs); {
			g := min(simd.WalkTile, len(outs)-s)
			if g > 1 {
				if win == nil {
					win = new([simd.WalkTile][]float32)
				}
				for i := range g {
					win[i] = outs[s+i][b:e]
				}
				ks.DotManyBiasBatch(rows, bias, ids, hs[s:s+g], win[:g])
			} else {
				ks.DotManyBias(rows, bias, ids, hs[s], outs[s][b:e])
			}
			s += g
		}
	}
	wb.release()
}

// Bias returns a read-only view of the bias vector. The quantized serving
// tier carries biases in float32 alongside its packed rows, so quantization
// reads them straight from the source view.
func (w *RowWeights) Bias() []float32 { return w.bias }

// RowF32 returns neuron i's weight vector as float32: a direct view of
// float32 storage, bfloat16 storage widened into buf (len >= In).
// Read-only; used by the LSH rebuild to hash current weights.
func (w *RowWeights) RowF32(i int, buf []float32) []float32 {
	return w.vecs.row(simd.Active(), i, &widening{buf: buf})
}
