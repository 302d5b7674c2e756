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
// (row-major again, by Lemma 1) and per-row weight gradients gzᵢ·h. Every
// pass takes h under RowWeights' activation contract — rounded through
// bfloat16 by the caller under the BF16 modes — and reads bfloat16 rows
// widened into float32, so every precision runs the float32 kernels.
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

// ForwardActive fills logits[k] with neuron active[k]'s pre-activation for
// h; see RowWeights.ForwardActive. hBF is unread.
func (l *RowLayer) ForwardActive(ks *simd.Kernels, active []int32, h []float32, hBF []bf16.BF16, logits []float32) {
	l.fwd.ForwardActive(ks, active, h, nil, logits)
}

// Accumulate adds one sample's contribution for active neuron id with logit
// gradient gz: ∇W[id] += gz·h, ∇b[id] += gz, and (if dh is non-nil)
// dh += gz·W[id]. dh is worker-private; concurrent calls race on the shared
// gradient rows by design (HOGWILD). Weights are only read here — they change
// in ApplyAdam, which the trainer serializes against Backward.
// hBF is unread.
//
// This is the per-row form: the dense middle stack (whose "active set" is
// chosen row by row by the ReLU mask) uses it; the output layer's training
// walk goes through AccumulateStripe. It calls the table's
// AxpyTwo entry on the row, widened when it is bfloat16 — a genuinely fused
// single walk on the assembly tiers, two independent axpys on the Go tiers,
// where the fused loop measures ~20% slower (see DESIGN.md "Known
// divergences"); the two shapes are bit-identical because the slice pairs
// never alias.
func (l *RowLayer) Accumulate(ks *simd.Kernels, id int32, gz float32, h []float32, hBF []bf16.BF16, dh []float32) {
	if dh != nil {
		wb := l.w.widening(1)
		ks.AxpyTwo(gz, h, l.grad[id], l.w.row(ks, int(id), wb), dh)
		wb.release()
	} else {
		ks.Axpy(gz, h, l.grad[id])
	}
	l.gbias[id] += gz
	l.touched.mark(id)
}

// ApplyAdam steps every touched row and its bias, zeroes consumed gradients
// and clears the touched set; rows are striped over workers by bitset word.
func (l *RowLayer) ApplyAdam(ks *simd.Kernels, p simd.AdamParams, workers int) {
	l.applyAdam(ks, p, workers, false)
}

// TouchedRows returns how many rows currently hold unapplied gradient.
func (l *RowLayer) TouchedRows() int { return l.touched.count() }

// ApplyAdamAll steps every row unconditionally — the dense update of the
// middle stack, where all parameters change every batch: ApplyAdam with the
// touched test off, and a journal that records every row.
func (l *RowLayer) ApplyAdamAll(ks *simd.Kernels, p simd.AdamParams, workers int) {
	l.applyAdam(ks, p, workers, true)
}

// ForwardAll computes every neuron's logit into out (len Out) — the full
// softmax pass used for evaluation; see RowWeights.ForwardAll. hBF is
// unread.
func (l *RowLayer) ForwardAll(ks *simd.Kernels, h []float32, hBF []bf16.BF16, out []float32, workers int) {
	l.fwd.ForwardAll(ks, h, nil, out, workers)
}

// RowF32 returns neuron i's weight vector as float32; see RowWeights.RowF32.
func (l *RowLayer) RowF32(i int, buf []float32) []float32 { return l.fwd.RowF32(i, buf) }
