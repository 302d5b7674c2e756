package layer

import (
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
)

// RowLayer is a fully connected layer whose weight matrix is stored in
// row-major order: row i is neuron i's full weight vector, contiguous in
// memory. It implements the Algorithm 1 product (§4.3.2, case 1) for the
// wide output layer: the input (hidden activation) is dense, the active
// output set is sparse, and each active logit is one contiguous 16-lane dot
// product. The backward pass computes ∇h = Σ gzᵢ·W[i] over active rows
// (row-major again, by Lemma 1) and per-row weight gradients gzᵢ·h.
type RowLayer struct {
	// In is the input (hidden) dimension; Out the neuron/label count.
	In, Out int

	// trainState holds gradient, ADAM moments, the touched set and the
	// optimizer walk; its w.f32 / w.bf are the rows below.
	trainState

	// fwd is the live forward view over the layer's rows and bias; the
	// forward methods and ForwardView go through it, so training and serving
	// consume the same forward implementation.
	fwd RowWeights
}

// NewRowLayer builds a row-major layer with in inputs and out neurons.
func NewRowLayer(in, out int, o Options) *RowLayer {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("layer: invalid RowLayer dims %dx%d", in, out))
	}
	rows := newStore(out, in, o.Precision, o.Placement)
	rows.initGaussian(1.0/math.Sqrt(float64(in)), o.Seed)
	l := &RowLayer{In: in, Out: out,
		fwd: RowWeights{In: in, Out: out, prec: o.Precision, vecs: rows, bias: make([]float32, out)}}
	l.trainState.init(o, rows, l.fwd.bias, true)
	return l
}

// Logit computes neuron id's pre-activation for the dense input h; see
// RowWeights.Logit, which implements the pass for both the training path
// and snapshot serving.
func (l *RowLayer) Logit(ks *simd.Kernels, id int32, h []float32, hBF []bf16.BF16) float32 {
	return l.fwd.Logit(ks, id, h, hBF)
}

// ForwardActive fills logits[k] with Logit(active[k]) for each active
// neuron in one kernel call; see RowWeights.ForwardActive.
func (l *RowLayer) ForwardActive(ks *simd.Kernels, active []int32, h []float32, hBF []bf16.BF16, logits []float32) {
	l.fwd.ForwardActive(ks, active, h, hBF, logits)
}

// Accumulate adds one sample's contribution for active neuron id with logit
// gradient gz: ∇W[id] += gz·h, ∇b[id] += gz, and (if dh is non-nil)
// dh += gz·W[id]. dh is worker-private; the shared gradient rows follow the
// layer's write policy. Weights are only read here — they change exclusively
// in ApplyAdam, which the trainer serializes against Backward.
//
// This is the per-row form: the dense middle stack (whose "active set" is
// chosen row by row by the ReLU mask), Locked layers and the BF16 precisions
// use it; the output layer's active-set walk goes through AccumulateActive.
// The FP32 path calls the table's AxpyTwo entry — a genuinely fused single
// walk on the assembly tiers, two independent axpys on the Go tiers, where
// the fused loop measures ~20% slower (see DESIGN.md "Known divergences");
// the two shapes are bit-identical because the slice pairs never alias.
func (l *RowLayer) Accumulate(ks *simd.Kernels, id int32, gz float32, h []float32, hBF []bf16.BF16, dh []float32) {
	if dh != nil && l.opts.Precision == FP32 {
		// dh is worker-private; only the gradient row needs the lock, but
		// the fused walk's bandwidth win outweighs the slightly longer
		// critical section under the Locked policy.
		l.lk.lockRow(id)
		ks.AxpyTwo(gz, h, l.grad[id], l.w.f32[id], dh)
		l.gbias[id] += gz
		l.lk.unlockRow(id)
		l.touched.mark(id)
		return
	}
	l.lk.lockRow(id)
	if l.opts.Precision == FP32 {
		ks.Axpy(gz, h, l.grad[id])
	} else {
		ks.AxpyBF16(gz, hBF, l.grad[id])
	}
	l.gbias[id] += gz
	l.lk.unlockRow(id)
	l.touched.mark(id)

	if dh != nil {
		if l.opts.Precision == BF16Both {
			ks.AxpyBF16(gz, l.w.bf[id], dh)
		} else {
			ks.Axpy(gz, l.w.f32[id], dh)
		}
	}
}

// AccumulateActive is the whole Algorithm 1 backward pass over one sample's
// active set: Accumulate(active[k], gz[k]) for every k in list order, with
// the same results to the bit. For FP32 unlocked layers the ∇W and ∇h walks
// are one AxpyTwoMany call — on the assembly tiers h and ∇h stay in vector
// registers while the listed rows stream past — followed by the bias-gradient
// and touched-set marks; Locked layers and the BF16 precisions take the
// per-row path, whose lock scope and BF16 kernels the walk does not have.
// gz must hold at least len(active) values.
func (l *RowLayer) AccumulateActive(ks *simd.Kernels, active []int32, gz []float32, h []float32, hBF []bf16.BF16, dh []float32) {
	if dh == nil || l.opts.Precision != FP32 || l.lk.enabled {
		for k, id := range active {
			l.Accumulate(ks, id, gz[k], h, hBF, dh)
		}
		return
	}
	ks.AxpyTwoMany(gz, active, h, l.grad, l.w.f32, dh)
	for k, id := range active {
		l.gbias[id] += gz[k]
		l.touched.mark(id)
	}
}

// AccumulateOwnedRow adds gz·h into row id's gradient and gz into its bias
// gradient without locking or touch-marking. The caller must own row id
// exclusively (the dense baseline tiles disjoint row ranges over workers)
// and must apply the update with ApplyAdamAll, which ignores the touched
// set. FP32 storage only.
func (l *RowLayer) AccumulateOwnedRow(ks *simd.Kernels, id int32, gz float32, h []float32) {
	ks.Axpy(gz, h, l.grad[id])
	l.gbias[id] += gz
}

// ApplyAdam steps every touched row and its bias, zeroes consumed gradients
// and clears the touched set; rows are striped over workers by bitset word.
func (l *RowLayer) ApplyAdam(ks *simd.Kernels, p simd.AdamParams, workers int) {
	l.applyAdam(ks, p, workers, false)
}

// ApplyAdamRange steps every touched row in [lo, hi) and its bias, zeroing
// consumed gradients. The sharded optimizer runs one call per shard
// concurrently — safe because shard row ranges are disjoint and touch reads
// are atomic. Unlike ApplyAdam it does NOT fold the touched set into the
// journal or clear it; after all ranges complete, the caller must invoke
// FinishAdam exactly once.
func (l *RowLayer) ApplyAdamRange(ks *simd.Kernels, p simd.AdamParams, lo, hi int) {
	l.adamRange(ks, p, lo, hi, false)
}

// FinishAdam completes a set of ApplyAdamRange calls covering the full row
// space: it folds the touched set into the journal (when enabled) and clears
// it. Must not run concurrently with ApplyAdamRange.
func (l *RowLayer) FinishAdam() { l.finishAdam(false) }

// TouchedRows returns how many rows currently hold unapplied gradient.
func (l *RowLayer) TouchedRows() int { return l.touched.count() }

// ApplyAdamAll steps every row unconditionally — the dense update of the
// full-softmax baseline, where all parameters change every batch: ApplyAdam
// with the touched test off, and a journal that records every row.
func (l *RowLayer) ApplyAdamAll(ks *simd.Kernels, p simd.AdamParams, workers int) {
	l.applyAdam(ks, p, workers, true)
}

// ForwardAll computes every neuron's logit into out (len Out) — the full
// softmax pass used for evaluation and by the dense baseline; see
// RowWeights.ForwardAll.
func (l *RowLayer) ForwardAll(ks *simd.Kernels, h []float32, hBF []bf16.BF16, out []float32, workers int) {
	l.fwd.ForwardAll(ks, h, hBF, out, workers)
}

// RowF32 returns neuron i's weight vector as float32; see RowWeights.RowF32.
func (l *RowLayer) RowF32(i int, buf []float32) []float32 { return l.fwd.RowF32(i, buf) }
