package layer

import (
	"fmt"
	"math"
	"sync"

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

	opts Options

	rows   [][]float32   // FP32 / BF16Act weights
	rowsBF [][]bf16.BF16 // BF16Both weights
	bias   []float32

	grad    [][]float32
	gbias   []float32
	m, v    [][]float32
	mb, vb  []float32
	touched *touchSet
	journal *touchSet // nil unless EnableJournal; rows touched since last drain
	lk      locks

	// fwd is the live forward view over the storage above; the forward
	// methods and ForwardView go through it, so training and serving consume
	// the same forward implementation.
	fwd RowWeights
}

// NewRowLayer builds a row-major layer with in inputs and out neurons.
func NewRowLayer(in, out int, o Options) *RowLayer {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("layer: invalid RowLayer dims %dx%d", in, out))
	}
	l := &RowLayer{In: in, Out: out, opts: o}
	scale := 1.0 / math.Sqrt(float64(in))
	if o.Precision == BF16Both {
		l.rowsBF = vectors2DBF16(out, in, o.Placement)
		initGaussianBF16(l.rowsBF, scale, o.Seed)
	} else {
		l.rows = vectors2D(out, in, o.Placement)
		initGaussian(l.rows, scale, o.Seed)
	}
	l.bias = make([]float32, out)
	l.grad = vectors2D(out, in, o.Placement)
	l.gbias = make([]float32, out)
	l.m = vectors2D(out, in, o.Placement)
	l.v = vectors2D(out, in, o.Placement)
	l.mb = make([]float32, out)
	l.vb = make([]float32, out)
	l.touched = newTouchSet(out)
	l.lk.enabled = o.Locked
	l.fwd = RowWeights{In: in, Out: out, prec: o.Precision,
		rows: l.rows, rowsBF: l.rowsBF, bias: l.bias}
	return l
}

// Options returns the construction options.
func (l *RowLayer) Options() Options { return l.opts }

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
		ks.AxpyTwo(gz, h, l.grad[id], l.rows[id], dh)
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
			ks.AxpyBF16(gz, l.rowsBF[id], dh)
		} else {
			ks.Axpy(gz, l.rows[id], dh)
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
	ks.AxpyTwoMany(gz, active, h, l.grad, l.rows, dh)
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
// and clears the touched set. The step and the gradient clear stay separate
// passes on purpose: BenchmarkKernelAdamZero and the row-walk experiments in
// DESIGN.md show the single-pass fusion (simd.AdamStepZero) is ~4-7% slower
// under the Go compiler, whose runtime memclr beats an inline zeroing store
// in the update loop (see DESIGN.md "Known divergences").
func (l *RowLayer) ApplyAdam(ks *simd.Kernels, p simd.AdamParams, workers int) {
	if l.opts.Precision == BF16Both {
		l.touched.forEachParallel(workers, func(id int32) {
			ks.AdamStepBF16(l.rowsBF[id], l.m[id], l.v[id], l.grad[id], p)
			simd.Zero(l.grad[id])
			adamScalar(&l.bias[id], &l.mb[id], &l.vb[id], l.gbias[id], p)
			l.gbias[id] = 0
		})
	} else {
		l.touched.forEachParallel(workers, func(id int32) {
			ks.AdamStep(l.rows[id], l.m[id], l.v[id], l.grad[id], p)
			simd.Zero(l.grad[id])
			adamScalar(&l.bias[id], &l.mb[id], &l.vb[id], l.gbias[id], p)
			l.gbias[id] = 0
		})
	}
	if l.journal != nil {
		l.journal.orFrom(l.touched)
	}
	l.touched.clear()
}

// ApplyAdamRange steps every touched row in [lo, hi) and its bias, zeroing
// consumed gradients. The sharded optimizer runs one call per shard
// concurrently — safe because shard row ranges are disjoint and touch reads
// are atomic. Unlike ApplyAdam it does NOT fold the touched set into the
// journal or clear it; after all ranges complete, the caller must invoke
// FinishAdam exactly once.
func (l *RowLayer) ApplyAdamRange(ks *simd.Kernels, p simd.AdamParams, lo, hi int) {
	if l.opts.Precision == BF16Both {
		l.touched.forEachRange(lo, hi, func(id int32) {
			ks.AdamStepBF16(l.rowsBF[id], l.m[id], l.v[id], l.grad[id], p)
			simd.Zero(l.grad[id])
			adamScalar(&l.bias[id], &l.mb[id], &l.vb[id], l.gbias[id], p)
			l.gbias[id] = 0
		})
	} else {
		l.touched.forEachRange(lo, hi, func(id int32) {
			ks.AdamStep(l.rows[id], l.m[id], l.v[id], l.grad[id], p)
			simd.Zero(l.grad[id])
			adamScalar(&l.bias[id], &l.mb[id], &l.vb[id], l.gbias[id], p)
			l.gbias[id] = 0
		})
	}
}

// FinishAdam completes a set of ApplyAdamRange calls covering the full row
// space: it folds the touched set into the journal (when enabled) and clears
// it. Must not run concurrently with ApplyAdamRange.
func (l *RowLayer) FinishAdam() {
	if l.journal != nil {
		l.journal.orFrom(l.touched)
	}
	l.touched.clear()
}

// TouchedRows returns how many rows currently hold unapplied gradient.
func (l *RowLayer) TouchedRows() int { return l.touched.count() }

// EnableJournal starts accumulating a touch journal: every row stepped by
// ApplyAdam (or all rows, under ApplyAdamAll) stays recorded across batches
// until DrainJournal collects it. The journal is what turns per-batch touch
// tracking into per-publish-interval delta extents.
func (l *RowLayer) EnableJournal() {
	if l.journal == nil {
		l.journal = newTouchSet(l.Out)
	}
}

// DrainJournal returns the rows stepped since the previous drain (ascending)
// and resets the journal. Call between batches, never concurrently with
// ApplyAdam. Returns nil when no journal is enabled.
func (l *RowLayer) DrainJournal() []int32 {
	if l.journal == nil {
		return nil
	}
	ids := l.journal.ids()
	l.journal.clear()
	return ids
}

// ApplyAdamAll steps every row unconditionally — the dense update of the
// full-softmax baseline, where all parameters change every batch. Rows are
// tiled across workers; consumed gradients are zeroed and the touched set
// cleared.
func (l *RowLayer) ApplyAdamAll(ks *simd.Kernels, p simd.AdamParams, workers int) {
	if workers < 1 {
		workers = 1
	}
	per := (l.Out + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, l.Out)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if l.opts.Precision == BF16Both {
					ks.AdamStepBF16(l.rowsBF[i], l.m[i], l.v[i], l.grad[i], p)
				} else {
					ks.AdamStep(l.rows[i], l.m[i], l.v[i], l.grad[i], p)
				}
				simd.Zero(l.grad[i])
				adamScalar(&l.bias[i], &l.mb[i], &l.vb[i], l.gbias[i], p)
				l.gbias[i] = 0
			}
		}(lo, hi)
	}
	wg.Wait()
	if l.journal != nil {
		l.journal.markAll() // dense step: every row changed
	}
	l.touched.clear()
}

// ForwardAll computes every neuron's logit into out (len Out) — the full
// softmax pass used for evaluation and by the dense baseline; see
// RowWeights.ForwardAll.
func (l *RowLayer) ForwardAll(ks *simd.Kernels, h []float32, hBF []bf16.BF16, out []float32, workers int) {
	l.fwd.ForwardAll(ks, h, hBF, out, workers)
}

// RowF32 returns neuron i's weight vector as float32. For BF16Both it is
// expanded into buf (len >= In); otherwise a direct view is returned.
// Read-only; used by the LSH rebuild to hash current weights.
func (l *RowLayer) RowF32(i int, buf []float32) []float32 {
	return l.fwd.RowF32(i, buf)
}

// Bias returns the bias vector (read-only view).
func (l *RowLayer) Bias() []float32 { return l.bias }

// ParamBytes returns the resident parameter size in bytes.
func (l *RowLayer) ParamBytes() int64 {
	per := int64(4)
	if l.opts.Precision == BF16Both {
		per = 2
	}
	return int64(l.In)*int64(l.Out)*per + int64(l.Out)*4
}
