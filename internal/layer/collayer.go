package layer

import (
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// ColLayer is a fully connected layer whose weight matrix is stored in
// column-major order: column j holds component j of every neuron's weight
// vector, contiguously. It implements the Algorithm 2 product (§4.3.2,
// case 2) for sparse inputs: for each non-zero (j, vⱼ) of the input,
// broadcast vⱼ and accumulate vⱼ·W[:,j] into the dense output with 16-lane
// blocks. SLIDE uses this as the hidden layer, where the input is the
// extremely sparse feature vector and the output is the small dense
// activation.
//
// The backward pass needs only the per-column gradient accumulation
// ∇W[:,j] += xⱼ·∇h (contiguous again, by Lemma 1) — no input gradient is
// produced because this is the first layer.
type ColLayer struct {
	// In is the input (sparse feature) dimension; Out the neuron count.
	In, Out int

	// trainState holds gradient, ADAM moments, the touched set and the
	// optimizer walk; its w.f32 / w.bf are the columns below.
	trainState

	// fwd is the live forward view over the layer's columns and bias;
	// Forward and ForwardView go through it, so training and serving consume
	// the same forward implementation.
	fwd ColWeights
}

// NewColLayer builds a column-major layer with in inputs and out neurons.
func NewColLayer(in, out int, act Activation, o Options) *ColLayer {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("layer: invalid ColLayer dims %dx%d", in, out))
	}
	cols := newStore(in, out, o.Precision, o.Placement)
	cols.initGaussian(1.0/math.Sqrt(float64(in)), o.Seed)
	l := &ColLayer{In: in, Out: out,
		fwd: ColWeights{In: in, Out: out, prec: o.Precision, act: act, vecs: cols, bias: make([]float32, out)}}
	l.trainState.init(o, cols, l.fwd.bias, false)
	return l
}

// Forward computes h = act(Wx + b) into h (len Out); see
// ColWeights.Forward, which implements the pass for both the training path
// and snapshot serving.
func (l *ColLayer) Forward(ks *simd.Kernels, x sparse.Vector, h []float32) {
	l.fwd.Forward(ks, x, h)
}

// Backward accumulates gradients given the input x, the forward activation
// h, and the output gradient dh. For ReLU layers dh is masked in place where
// the unit was inactive, so the caller must pass dh before any further use.
// Concurrent calls race on the shared gradient columns and bias by design
// (HOGWILD); a caller that needs defined results calls it from one goroutine
// or uses BackwardBatchRange over owned unit tiles.
func (l *ColLayer) Backward(ks *simd.Kernels, x sparse.Vector, h, dh []float32) {
	if len(h) != l.Out || len(dh) != l.Out {
		panic("layer: ColLayer.Backward size mismatch")
	}
	if l.fwd.act == ReLU {
		for i := range dh {
			if h[i] <= 0 {
				dh[i] = 0
			}
		}
	}
	ks.Add(dh, l.gbias)
	// ∇W[:,j] += xⱼ·dh for all of x's non-zeros in one call: dh stays in
	// registers while the listed gradient columns stream past.
	ks.ScatterAxpy(x.Values, x.Indices, dh, l.grad)
	for _, j := range x.Indices {
		l.touched.mark(j)
	}
}

// BackwardBatchRange accumulates the batch's hidden gradients for output
// units [lo, hi) only: for every sample i (in order), it ReLU-masks
// dhs[i][lo:hi] against acts[i], adds it into the bias gradient subrange,
// and accumulates xⱼ·dh[lo:hi] into each touched column's subrange. Workers
// own disjoint [lo, hi) tiles, so no locks are needed; because every kernel
// involved is elementwise, the per-scalar accumulation order is sample-
// ascending regardless of where the tile boundaries fall — the result is
// bit-identical for any tile count. Used by the sharded trainer in place of
// per-sample Backward calls; apply with ApplyAdam as usual.
func (l *ColLayer) BackwardBatchRange(ks *simd.Kernels, xs []sparse.Vector, acts, dhs [][]float32, lo, hi int) {
	for i := range xs {
		h, dh := acts[i], dhs[i]
		if len(h) != l.Out || len(dh) != l.Out {
			panic("layer: ColLayer.BackwardBatchRange size mismatch")
		}
		if l.fwd.act == ReLU {
			for u := lo; u < hi; u++ {
				if h[u] <= 0 {
					dh[u] = 0
				}
			}
		}
		ks.Add(dh[lo:hi], l.gbias[lo:hi])
		for k, j := range xs[i].Indices {
			ks.Axpy(xs[i].Values[k], dh[lo:hi], l.grad[j][lo:hi])
			l.touched.mark(j)
		}
	}
}

// ApplyAdam steps every touched column and the bias with the fused vector
// ADAM kernel of §4.3.1, zeroes the consumed gradients and clears the
// touched set. Call only after all Backward calls for the batch completed.
func (l *ColLayer) ApplyAdam(ks *simd.Kernels, p simd.AdamParams, workers int) {
	l.applyAdam(ks, p, workers, false)
	ks.AdamStep(l.bias, l.mb, l.vb, l.gbias, p)
	simd.Zero(l.gbias)
}

// Col returns column j of the weight matrix as float32 values: a direct
// view of float32 storage, bfloat16 storage widened into buf (len >= Out).
// Read-only.
func (l *ColLayer) Col(j int, buf []float32) []float32 {
	return l.w.row(simd.Active(), j, &widening{buf: buf})
}
