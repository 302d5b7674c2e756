package layer

import (
	"math"

	"github.com/slide-cpu/slide/internal/fanout"
	"github.com/slide-cpu/slide/internal/simd"
)

// trainState is everything a layer owns beyond its forward view, identical
// for both layer kinds and embedded in each: per-vector gradient and ADAM
// moments, the bias triple, the touched set and its journal, and the
// optimizer walk over all of it. w and bias alias the forward view's storage
// — the walk steps them in place, and a checkpoint is these fields in a fixed
// order (serialize.go).
type trainState struct {
	opts Options

	w    store     // the forward view's weight vectors
	bias []float32 // the forward view's bias
	// rowBias: bias[i] belongs to vector i and steps with it, from gbias[i]
	// (RowLayer). A ColLayer's bias receives gradient from every sample and
	// is stepped whole by ColLayer.ApplyAdam after the walk.
	rowBias bool

	grad, m, v    [][]float32 // per vector, float32 in every precision
	gbias, mb, vb []float32
	touched       *touchSet    // vectors holding unapplied gradient
	journal       *touchSet    // nil unless EnableJournal; vectors stepped since the last drain
	fanout        fanout.Group // ApplyAdam's workers
}

// init allocates the training state for a layer of w.n() vectors whose
// forward view holds w and bias.
func (t *trainState) init(o Options, w store, bias []float32, rowBias bool) {
	n, vecLen := w.n(), w.vecLen()
	*t = trainState{opts: o, w: w, bias: bias, rowBias: rowBias,
		grad: vectors2D(n, vecLen, o.Placement), m: vectors2D(n, vecLen, o.Placement), v: vectors2D(n, vecLen, o.Placement),
		gbias: make([]float32, len(bias)), mb: make([]float32, len(bias)), vb: make([]float32, len(bias)),
		touched: newTouchSet(n)}
}

// Bias returns the bias vector (read-only view).
func (t *trainState) Bias() []float32 { return t.bias }

// EnableJournal starts accumulating a touch journal: every vector stepped by
// ApplyAdam or a stepping AccumulateStripe (all of them, under ApplyAdamAll)
// stays recorded across batches until DrainJournal collects it. The journal
// is what turns per-batch touch tracking into per-publish-interval delta
// extents. A ColLayer's bias is deliberately not journaled — it receives
// dense gradient every batch, so delta consumers always treat the whole bias
// as changed.
func (t *trainState) EnableJournal() {
	if t.journal == nil {
		t.journal = newTouchSet(t.w.n())
	}
}

// DrainJournal returns the vectors stepped since the previous drain
// (ascending) and resets the journal. Call between batches, never
// concurrently with ApplyAdam. Returns nil when no journal is enabled.
func (t *trainState) DrainJournal() []int32 {
	if t.journal == nil {
		return nil
	}
	ids := t.journal.ids()
	t.journal.clear()
	return ids
}

// stepVector applies one ADAM step to vector id from its accumulated
// gradient, then zeroes the gradient. Step and clear stay separate passes on
// purpose: a single-pass fused kernel measured ~4-7% slower, because the
// runtime's memclr beats an inline zeroing store in the update loop (DESIGN.md
// "Known divergences" keeps the numbers; the kernel is deleted).
func (t *trainState) stepVector(ks *simd.Kernels, p simd.AdamParams, id int32) {
	if t.w.bf != nil {
		ks.AdamStepBF16(t.w.bf[id], t.m[id], t.v[id], t.grad[id], p)
	} else {
		ks.AdamStep(t.w.f32[id], t.m[id], t.v[id], t.grad[id], p)
	}
	simd.Zero(t.grad[id])
	if t.rowBias {
		adamScalar(&t.bias[id], &t.mb[id], &t.vb[id], t.gbias[id], p)
		t.gbias[id] = 0
	}
}

// applyAdam is the whole optimizer pass: one word-aligned stripe of the
// touched set per worker — or of every vector, the dense update of the middle
// stack, where every parameter changes every batch — then the stepped vectors
// go into the journal (when enabled) and the touched set is cleared. The
// stripes are disjoint and touch reads atomic, so they run concurrently.
func (t *trainState) applyAdam(ks *simd.Kernels, p simd.AdamParams, workers int, all bool) {
	nw := len(t.touched.words)
	workers = max(1, min(workers, nw))
	per := (nw + workers - 1) / workers
	t.fanout.Run(workers, func(w int) {
		lo, hi := w*per*32, min((w+1)*per*32, t.touched.n)
		if !all {
			t.touched.forEachRange(lo, hi, func(id int32) { t.stepVector(ks, p, id) })
			return
		}
		for id := lo; id < hi; id++ {
			t.stepVector(ks, p, int32(id))
		}
	})
	if t.journal != nil {
		if all {
			t.journal.markAll()
		} else {
			t.journal.orFrom(t.touched)
		}
	}
	t.touched.clear()
}

// adamScalar applies one ADAM step to a single parameter, used for the
// per-neuron biases of the sparse output layer.
func adamScalar(w, m, v *float32, g float32, p simd.AdamParams) {
	mk := p.Beta1**m + (1-p.Beta1)*g
	vk := p.Beta2**v + (1-p.Beta2)*g*g
	*m = mk
	*v = vk
	*w -= p.CorrLR * mk / (float32(math.Sqrt(float64(vk))) + p.Eps)
}
