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

// dequant maps the integer accumulator back to a float32 logit. The
// explicit float32 conversions pin every intermediate to a single rounding
// — no FMA contraction — so logits are bit-stable across builds and tiers.
func (q *RowQ) dequant(id int32, acc int32, sa float32, zp int32) float32 {
	d := float32(q.scales[id] * sa)
	v := float32(acc - zp*q.rowSums[id])
	return float32(d*v) + q.bias[id]
}

// Logit computes neuron id's dequantized pre-activation — the per-row
// definition every walk below is an id list of. qa must have In elements.
func (q *RowQ) Logit(ks *simd.Kernels, id int32, qa []uint8, sa float32, zp int32) float32 {
	row := q.rows8[id]
	if len(qa) != len(row) {
		panic("quant: Logit activation length mismatch")
	}
	return q.dequant(id, ks.DotU8S8(qa, row), sa, zp)
}

// WalkScratch holds a walk's integer accumulators between the kernel call
// that fills them and the loop that dequantizes them: one list per sample of
// a tile, as long as the longest id list walked so far. A walk grows it on
// first use and reuses it afterwards, so whoever owns it pays for it once —
// network's pooled walk state keeps one per row tile for the exact walk and
// one per call in flight for sampled serving. The zero value is ready; a
// WalkScratch must not be shared between goroutines.
type WalkScratch struct {
	accs [simd.WalkTile][]int32
	qa   [1][]uint8 // ForwardActive's activation, as the batch of one the kernel takes
}

// lists returns the accumulator lists, each at least n long.
func (w *WalkScratch) lists(n int) *[simd.WalkTile][]int32 {
	if len(w.accs[0]) < n {
		buf := make([]int32, simd.WalkTile*n)
		for s := range w.accs {
			w.accs[s] = buf[s*n : (s+1)*n : (s+1)*n]
		}
	}
	return &w.accs
}

// dequantInto turns the accumulators of an id list into its logits: dequant
// per id, over local copies of the per-row tables so that the stores into
// logits cannot force their reload. A gathered list is what the sampled walk
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

// ForwardActive fills logits[k] with Logit(active[k]) — the one scoring
// primitive of this representation, a single DotManyU8S8 call over the id
// list and one dequantizing loop: the sampled serving path calls it over the
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
	accs := ws.lists(len(active))
	ws.qa[0] = qa
	ks.DotManyU8S8(q.rows8, active, ws.qa[:], accs[:1])
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
// outs[s][i] = Logit(i, qas[s]).
func (q *RowQ) ForwardAllBatch(ks *simd.Kernels, qas [][]uint8, sas []float32, zps []int32, outs [][]float32) {
	for s := range outs {
		if len(outs[s]) != q.Out {
			panic("quant: ForwardAllBatch output size mismatch")
		}
	}
	q.ForwardAllBatchRange(ks, qas, sas, zps, outs, 0, q.Out, nil)
}

// ForwardAllBatchRange is the exact walk restricted to rows [lo, hi): the
// same loop as layer.RowWeights.ForwardAllBatchRange — a block of rows
// (layer.BlockRows of them, so four times as many as the f32 walk takes)
// against every sample of the chunk — over packed rows, so each packed row
// streams from memory once per chunk. A block meets the samples a tile at a
// time: one DotManyU8S8 call scores it against simd.WalkTile of them, each
// row block loaded once for the tile, into ws's accumulator lists, and one
// DequantRows8 call per sample turns those into logits over the block's
// contiguous stretch of the per-row tables (its ids are an Iota). Shards call it
// concurrently over disjoint ranges into shared outs, each with its own ws
// (nil allocates one); every logit is Logit's, so the assembled scores are
// bit-identical at any tiling.
func (q *RowQ) ForwardAllBatchRange(ks *simd.Kernels, qas [][]uint8, sas []float32, zps []int32, outs [][]float32, lo, hi int, ws *WalkScratch) {
	if len(outs) != len(qas) {
		panic("quant: ForwardAllBatchRange batch size mismatch")
	}
	if lo < 0 || hi > q.Out || lo > hi {
		panic("quant: ForwardAllBatchRange row range out of bounds")
	}
	if ws == nil {
		ws = new(WalkScratch)
	}
	ids, block := layer.Iota(q.Out), layer.BlockRows(q.In)
	accs := ws.lists(min(block, hi-lo))
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		for s := 0; s < len(outs); s += simd.WalkTile {
			t := min(s+simd.WalkTile, len(outs))
			ks.DotManyU8S8(q.rows8, ids[b:e], qas[s:t], accs[:t-s])
			for i := s; i < t; i++ {
				ks.DequantRows8(accs[i-s], q.scales[b:e], q.rowSums[b:e], q.bias[b:e], sas[i], zps[i], outs[i][b:e])
			}
		}
	}
}

// CheckFinite scans the scales and biases — the only float state this view
// holds; packed integer rows cannot be non-finite. The stride parameter
// exists for signature parity with the layer views; the scan is O(Out)
// scalars either way, so it is always complete.
func (q *RowQ) CheckFinite(stride int) error {
	_ = stride
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
