package quant

import (
	"fmt"

	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
)

// Forward methods mirroring layer.RowWeights' serving surface, over packed
// rows and a quantized activation vector (qa, sa, zp from QuantizeActs)
// instead of h. The score vectors they produce feed the existing
// TopKInto / scatter-gather ranking unchanged.

// WalkScratch holds a walk's integer accumulators between the kernel call
// that fills them and the loop that dequantizes them: one list per sample of
// the largest batch one kernel call took so far (simd.PanelWidth at most),
// each as long as the longest id list. A walk grows it on first use and
// reuses it afterwards, so whoever owns it pays for it once — network's
// pooled walk state keeps one per row tile for the exact walk and one per
// call in flight for sampled serving. The zero value is ready; a WalkScratch
// must not be shared between goroutines.
type WalkScratch struct {
	accs [][]int32
	qa   [1][]uint8 // ForwardActive's activation, as the batch of one the kernel takes
}

// lists returns ns accumulator lists, each at least n long. They are cut
// from one buffer an odd number of 64-byte lines apart, never a multiple of
// 4 KiB: a kernel that stores one slot of every sample at once (the VNNI
// panel walk's transposed tile) would otherwise land all its stores in one
// L1 set.
func (w *WalkScratch) lists(ns, n int) [][]int32 {
	if len(w.accs) < ns || len(w.accs) > 0 && len(w.accs[0]) < n {
		lists, long := max(ns, len(w.accs)), n
		if len(w.accs) > 0 {
			long = max(n, len(w.accs[0]))
		}
		stride := ((long+15)/16 | 1) * 16
		buf := make([]int32, lists*stride)
		w.accs = make([][]int32, lists)
		for s := range w.accs {
			w.accs[s] = buf[s*stride : s*stride+long : s*stride+long]
		}
	}
	return w.accs[:ns]
}

// dequantInto turns the accumulators of an id list into its logits, one
// per id, over local copies of the per-row tables so that the stores into
// logits cannot force their reload. The explicit float32 conversions pin
// every intermediate to a single rounding — no FMA contraction — so logits
// are bit-stable across builds and tiers. A gathered list is what the sampled walk
// has; the exact walk's rows are contiguous and take simd's DequantRows8.
func (q *RowQ) dequantInto(ids []int32, acc []int32, sa float32, zp int32, logits []float32) {
	scales, rowSums, bias := q.scales, q.rowSums, q.bias
	acc, logits = acc[:len(ids)], logits[:len(ids)]
	for k, id := range ids {
		d := float32(scales[id] * sa)
		v := float32(acc[k] - zp*rowSums[id])
		logits[k] = float32(d*v) + bias[id]
	}
}

// ForwardActive fills logits[k] with neuron active[k]'s dequantized
// pre-activation (the package tests' refLogit is the per-row definition
// every walk here is an id list of) — the one scoring primitive of this
// representation, a single DotManyU8S8 call over the id list and one
// dequantizing loop: the sampled serving path calls it over the
// LSH-retrieved candidate set. Like the f32 primitive it panics at the first
// id that is out of range or whose row does not have len(qa) elements, after
// having scored the ids before it. ws may be nil, which allocates.
func (q *RowQ) ForwardActive(ks *simd.Kernels, active []int32, qa []uint8, sa float32, zp int32, logits []float32, ws *WalkScratch) {
	if len(logits) < len(active) {
		panic("quant: ForwardActive logits buffer too short")
	}
	if ws == nil {
		ws = new(WalkScratch)
	}
	accs := ws.lists(1, len(active))
	ws.qa[0] = qa
	ks.DotManyU8S8(q.rows8, active, ws.qa[:], accs)
	q.dequantInto(active, accs[0], sa, zp, logits)
}

// ForwardAll computes every neuron's logit into out (len Out): the exact
// walk for a batch of one, on the caller's goroutine. workers is accepted
// for signature parity with layer.RowWeights.ForwardAll and ignored —
// serving scales across calls.
func (q *RowQ) ForwardAll(ks *simd.Kernels, qa []uint8, sa float32, zp int32, out []float32, workers int) {
	q.ForwardAllBatch(ks, [][]uint8{qa}, []float32{sa}, []int32{zp}, [][]float32{out})
}

// ForwardAllBatch is the exact walk over every row:
// outs[s][i] is neuron i's dequantized logit for qas[s].
func (q *RowQ) ForwardAllBatch(ks *simd.Kernels, qas [][]uint8, sas []float32, zps []int32, outs [][]float32) {
	for s := range outs {
		if len(outs[s]) != q.Out {
			panic("quant: ForwardAllBatch output size mismatch")
		}
	}
	q.ForwardAllBatchRange(ks, qas, sas, zps, outs, nil, 0, q.Out, nil)
}

// blockRows is how many packed rows of in bytes one block of the exact walk
// covers: layer.BlockRows rounded down to whole simd.MaxGroup groups (at
// least one), so that a walk from a group boundary hands every block's
// DequantRows8 call whole groups.
func blockRows(in int) int {
	return max(simd.MaxGroup, layer.BlockRows(in)&^(simd.MaxGroup-1))
}

// ForwardAllBatchRange is the exact walk restricted to rows [lo, hi): the
// same loop as layer.RowWeights.ForwardAllBatchRange — a block of rows
// (blockRows of them, about four times as many as the f32 walk takes)
// against every sample of the chunk — over packed rows, so each packed row
// streams from memory once per chunk. One DotManyU8S8 call scores a block
// against up to simd.PanelWidth samples at once, into ws's accumulator
// lists — the kernel chooses how to tile them (on the VNNI tier, activation
// panels for a large batch) — and one DequantRows8 call per sample turns
// those into logits over the block's contiguous stretch of the per-row
// tables (its ids are an Iota). Shards call it concurrently over disjoint
// ranges into shared outs, each with its own ws (nil allocates one); every
// logit is refLogit's, so the assembled scores are bit-identical at any
// tiling.
//
// Unless maxes is nil, the dequant also sets maxes[s][j] to the largest of
// outs[s][simd.MaxGroup·j:][:simd.MaxGroup] for every group in [lo, hi), so
// a range that is not empty must then start on a group boundary and end on
// one or at Out: blocks are whole groups (blockRows), and no group
// spans two ranges.
func (q *RowQ) ForwardAllBatchRange(ks *simd.Kernels, qas [][]uint8, sas []float32, zps []int32, outs, maxes [][]float32, lo, hi int, ws *WalkScratch) {
	if len(outs) != len(qas) || maxes != nil && len(maxes) != len(outs) {
		panic("quant: ForwardAllBatchRange batch size mismatch")
	}
	if lo < 0 || hi > q.Out || lo > hi {
		panic("quant: ForwardAllBatchRange row range out of bounds")
	}
	const g = simd.MaxGroup
	if maxes != nil && lo < hi && (lo%g != 0 || hi%g != 0 && hi != q.Out) {
		panic("quant: ForwardAllBatchRange maxima over a range off the group boundaries")
	}
	if ws == nil {
		ws = new(WalkScratch)
	}
	ids, block := layer.Iota(q.Out), blockRows(q.In)
	accs := ws.lists(min(len(outs), simd.PanelWidth), min(block, hi-lo))
	var m []float32
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		for s := 0; s < len(outs); s += simd.PanelWidth {
			t := min(s+simd.PanelWidth, len(outs))
			ks.DotManyU8S8(q.rows8, ids[b:e], qas[s:t], accs[:t-s])
			for i := s; i < t; i++ {
				if maxes != nil {
					m = maxes[i][b/g:]
				}
				ks.DequantRows8(accs[i-s], q.scales[b:e], q.rowSums[b:e], q.bias[b:e], sas[i], zps[i], outs[i][b:e], m)
			}
		}
	}
}

// CheckFinite scans the scales and biases — the only float state this view
// holds; packed integer rows cannot be non-finite. The scan is O(Out)
// scalars, so unlike the layer views' it is always complete.
func (q *RowQ) CheckFinite() error {
	if i := health.FirstNonFinite32(q.scales); i >= 0 {
		return fmt.Errorf("%w: quantized scale[%d]", layer.ErrNonFinite, i)
	}
	if i := health.FirstNonFinite32(q.bias); i >= 0 {
		return fmt.Errorf("%w: quantized bias[%d]", layer.ErrNonFinite, i)
	}
	return nil
}

// CheckFiniteRows scans exactly the named rows' scales plus the full bias —
// the delta-admission path.
func (q *RowQ) CheckFiniteRows(ids []int32) error {
	if i := health.FirstNonFinite32(q.bias); i >= 0 {
		return fmt.Errorf("%w: quantized bias[%d]", layer.ErrNonFinite, i)
	}
	for _, id := range ids {
		if int(id) >= len(q.scales) {
			continue
		}
		if health.FirstNonFinite32(q.scales[id:id+1]) >= 0 {
			return fmt.Errorf("%w: quantized scale[%d]", layer.ErrNonFinite, id)
		}
	}
	return nil
}
