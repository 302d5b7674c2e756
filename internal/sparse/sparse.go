// Package sparse provides the sparse-sample containers used throughout the
// system, in the two memory layouts whose contrast is the heart of the
// paper's §4.1 "Removing Data Memory Fragmentation":
//
//   - CSRBatch: the optimized layout — all non-zero indices and values of a
//     batch live in one long contiguous buffer, with an offsets vector
//     indexing the start of each sample. Hundreds of HOGWILD threads walking
//     one batch then share cache lines and prefetch for each other.
//   - FragBatch: the naive layout — every sample owns separately allocated
//     index/value slices, scattered across the heap, which is what the
//     original SLIDE implementation did.
//
// Both satisfy the Batch interface, so every consumer (trainer, baseline,
// hasher) is layout-agnostic and the ablation harness can swap layouts with
// everything else held fixed.
package sparse

import (
	"errors"
	"fmt"
)

// Vector is a read-only view of one sparse sample: parallel slices of
// feature indices and their values. Indices are sorted ascending and unique.
type Vector struct {
	Indices []int32
	Values  []float32
}

// NNZ returns the number of stored non-zeros.
func (v Vector) NNZ() int { return len(v.Indices) }

// Dot returns the inner product of the sparse vector with a dense vector.
// Out-of-range indices panic (caller dimension bug).
func (v Vector) Dot(dense []float32) float32 {
	var s float32
	for k, idx := range v.Indices {
		s += v.Values[k] * dense[idx]
	}
	return s
}

// Dense scatters the vector into a fresh dense slice of the given dimension.
func (v Vector) Dense(dim int) []float32 {
	out := make([]float32, dim)
	for k, idx := range v.Indices {
		out[idx] = v.Values[k]
	}
	return out
}

// Validate checks that indices are sorted, unique and within [0, dim).
// A negative dim skips the range check.
func (v Vector) Validate(dim int) error {
	if len(v.Indices) != len(v.Values) {
		return fmt.Errorf("sparse: %d indices but %d values", len(v.Indices), len(v.Values))
	}
	for k, idx := range v.Indices {
		if dim >= 0 && (idx < 0 || int(idx) >= dim) {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", idx, dim)
		}
		if k > 0 && idx <= v.Indices[k-1] {
			return fmt.Errorf("sparse: indices not strictly ascending at position %d (%d after %d)",
				k, idx, v.Indices[k-1])
		}
	}
	return nil
}

// Batch is a read-only collection of sparse samples with multi-label targets.
type Batch interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns a view of sample i. The returned slices alias the
	// batch's storage and must not be mutated.
	Sample(i int) Vector
	// Labels returns the label ids of sample i (aliases storage).
	Labels(i int) []int32
	// NNZ returns the total number of non-zeros across all samples.
	NNZ() int
}

// ErrEmptyBatch is returned by builders asked to finalize zero samples.
var ErrEmptyBatch = errors.New("sparse: empty batch")

// CSRBatch is the coalesced layout (§4.1): one contiguous indices buffer,
// one contiguous values buffer, one contiguous labels buffer, each with an
// offsets vector.
type CSRBatch struct {
	indices      []int32
	values       []float32
	offsets      []int64 // len = n+1
	labels       []int32
	labelOffsets []int64 // len = n+1
}

// Len implements Batch.
func (b *CSRBatch) Len() int { return len(b.offsets) - 1 }

// Sample implements Batch.
func (b *CSRBatch) Sample(i int) Vector {
	lo, hi := b.offsets[i], b.offsets[i+1]
	return Vector{Indices: b.indices[lo:hi:hi], Values: b.values[lo:hi:hi]}
}

// Labels implements Batch.
func (b *CSRBatch) Labels(i int) []int32 {
	lo, hi := b.labelOffsets[i], b.labelOffsets[i+1]
	return b.labels[lo:hi:hi]
}

// NNZ implements Batch.
func (b *CSRBatch) NNZ() int { return len(b.indices) }

// FragBatch is the fragmented layout: per-sample heap allocations, the data
// layout of the original (naive) SLIDE implementation.
type FragBatch struct {
	samples []Vector
	labels  [][]int32
	nnz     int
}

// Len implements Batch.
func (b *FragBatch) Len() int { return len(b.samples) }

// Sample implements Batch.
func (b *FragBatch) Sample(i int) Vector { return b.samples[i] }

// Labels implements Batch.
func (b *FragBatch) Labels(i int) []int32 { return b.labels[i] }

// NNZ implements Batch.
func (b *FragBatch) NNZ() int { return b.nnz }

// Layout names a batch memory layout.
type Layout int

const (
	// Coalesced selects CSRBatch (the paper's optimized layout).
	Coalesced Layout = iota
	// Fragmented selects FragBatch (the naive layout).
	Fragmented
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case Coalesced:
		return "coalesced"
	case Fragmented:
		return "fragmented"
	default:
		return "unknown"
	}
}

// Builder accumulates samples and finalizes them into either layout.
// The zero value is ready to use.
type Builder struct {
	indices      []int32
	values       []float32
	offsets      []int64
	labels       []int32
	labelOffsets []int64
}

// Add appends one sample. The slices are copied; the caller may reuse them.
// Indices must be sorted ascending (validated lazily via Vector.Validate by
// callers that parse untrusted input).
func (b *Builder) Add(indices []int32, values []float32, labels []int32) {
	if len(indices) != len(values) {
		panic("sparse: Builder.Add index/value length mismatch")
	}
	if len(b.offsets) == 0 {
		b.offsets = append(b.offsets, 0)
		b.labelOffsets = append(b.labelOffsets, 0)
	}
	b.indices = append(b.indices, indices...)
	b.values = append(b.values, values...)
	b.offsets = append(b.offsets, int64(len(b.indices)))
	b.labels = append(b.labels, labels...)
	b.labelOffsets = append(b.labelOffsets, int64(len(b.labels)))
}

// Len returns the number of samples added so far.
func (b *Builder) Len() int {
	if len(b.offsets) == 0 {
		return 0
	}
	return len(b.offsets) - 1
}

// Reset clears the builder for reuse, keeping the capacity of all five
// buffers. The next Add overwrites them in place, so a CSRBatch finalized
// before the Reset is no longer valid.
func (b *Builder) Reset() {
	b.indices = b.indices[:0]
	b.values = b.values[:0]
	b.offsets = b.offsets[:0]
	b.labels = b.labels[:0]
	b.labelOffsets = b.labelOffsets[:0]
}

// CSR finalizes into the coalesced layout. The builder's backing buffers are
// handed to the batch; call Reset before reusing the builder.
func (b *Builder) CSR() (*CSRBatch, error) {
	if b.Len() == 0 {
		return nil, ErrEmptyBatch
	}
	return &CSRBatch{
		indices:      b.indices,
		values:       b.values,
		offsets:      b.offsets,
		labels:       b.labels,
		labelOffsets: b.labelOffsets,
	}, nil
}

// Fragmented finalizes into the fragmented layout, making one fresh
// allocation per sample (deliberately reproducing the naive heap behaviour).
func (b *Builder) Fragmented() (*FragBatch, error) {
	n := b.Len()
	if n == 0 {
		return nil, ErrEmptyBatch
	}
	fb := &FragBatch{
		samples: make([]Vector, n),
		labels:  make([][]int32, n),
		nnz:     len(b.indices),
	}
	for i := 0; i < n; i++ {
		lo, hi := b.offsets[i], b.offsets[i+1]
		idx := make([]int32, hi-lo)
		val := make([]float32, hi-lo)
		copy(idx, b.indices[lo:hi])
		copy(val, b.values[lo:hi])
		fb.samples[i] = Vector{Indices: idx, Values: val}
		llo, lhi := b.labelOffsets[i], b.labelOffsets[i+1]
		lab := make([]int32, lhi-llo)
		copy(lab, b.labels[llo:lhi])
		fb.labels[i] = lab
	}
	return fb, nil
}

// Build finalizes into the requested layout.
func (b *Builder) Build(layout Layout) (Batch, error) {
	switch layout {
	case Coalesced:
		return b.CSR()
	case Fragmented:
		return b.Fragmented()
	default:
		return nil, fmt.Errorf("sparse: unknown layout %d", layout)
	}
}

// Validate checks every sample of a batch against the feature dimension.
func Validate(b Batch, dim int) error {
	for i := 0; i < b.Len(); i++ {
		if err := b.Sample(i).Validate(dim); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return nil
}
