package quant

import (
	"fmt"

	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
)

// Forward methods mirroring layer.RowWeights' serving surface, over packed
// rows and a quantized activation vector (qa, sa, zp from QuantizeActs)
// instead of (h, hBF). The score vectors they produce feed the existing
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
// definition every walk below is an id list of.
func (q *RowQ) Logit(ks *simd.Kernels, id int32, qa []uint8, sa float32, zp int32) float32 {
	return q.dequant(id, ks.DotU8S8(qa, q.rows8[id]), sa, zp)
}

// ForwardActive fills logits[k] with Logit(active[k]) — the one scoring
// primitive of this representation: the sampled serving path calls it over
// the LSH-retrieved candidate set, the exact walk over blocks of every row.
func (q *RowQ) ForwardActive(ks *simd.Kernels, active []int32, qa []uint8, sa float32, zp int32, logits []float32) {
	if len(logits) < len(active) {
		panic("quant: ForwardActive logits buffer too short")
	}
	for k, id := range active {
		logits[k] = q.Logit(ks, id, qa, sa, zp)
	}
}

// ForwardAll computes every neuron's logit into out (len Out): the exact
// walk for a batch of one, on the caller's goroutine. workers is accepted
// for signature parity with layer.RowWeights.ForwardAll and ignored —
// serving scales across calls and the dense baseline never quantizes.
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
	q.ForwardAllBatchRange(ks, qas, sas, zps, outs, 0, q.Out)
}

// ForwardAllBatchRange is the exact walk restricted to rows [lo, hi): the
// same loop as layer.RowWeights.ForwardAllBatchRange — a block of rows
// (layer.BlockRows of them, so four times as many as the f32 walk takes)
// against every sample of the chunk, one ForwardActive call per (block,
// sample) — over packed rows, so each packed row streams from memory once
// per chunk. Shards call it concurrently over disjoint ranges into shared
// outs; every logit is Logit's, so the assembled scores are bit-identical
// at any tiling.
func (q *RowQ) ForwardAllBatchRange(ks *simd.Kernels, qas [][]uint8, sas []float32, zps []int32, outs [][]float32, lo, hi int) {
	if len(outs) != len(qas) {
		panic("quant: ForwardAllBatchRange batch size mismatch")
	}
	if lo < 0 || hi > q.Out || lo > hi {
		panic("quant: ForwardAllBatchRange row range out of bounds")
	}
	ids, block := layer.Iota(q.Out), layer.BlockRows(q.In)
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		for s, out := range outs {
			q.ForwardActive(ks, ids[b:e], qas[s], sas[s], zps[s], out[b:e])
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
