// Package dataset provides the three workloads of the paper's evaluation
// (§5.1, Table 1) behind one Dataset type:
//
//   - an XMC/SVMlight-style parser so the real Amazon-670K, WikiLSHTC-325K
//     and preprocessed Text8 files drop in when available;
//   - planted-model synthetic generators matching Table 1's statistics at a
//     configurable scale (the substitution documented in DESIGN.md), so all
//     experiments run self-contained;
//   - a Text8-like synthetic corpus with the word2vec skip-gram extraction
//     (window 2) the paper uses.
//
// Batches are materialized in either of the §4.1 memory layouts (coalesced
// CSR or fragmented) via the Iter epoch iterator.
package dataset

import (
	"fmt"
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/sparse"
)

// Dataset is an in-memory multi-label sparse dataset.
type Dataset struct {
	// Name labels the workload (e.g. "amazon-670k@0.05").
	Name string
	// Features is the input dimensionality; Labels the label-space size.
	Features int
	Labels   int

	data *sparse.CSRBatch
}

// New wraps a coalesced batch as a dataset. The batch is not validated;
// callers parsing untrusted input should run Validate.
func New(name string, features, labels int, data *sparse.CSRBatch) *Dataset {
	return &Dataset{Name: name, Features: features, Labels: labels, data: data}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.data.Len() }

// Sample returns sample i's feature vector (aliases storage).
func (d *Dataset) Sample(i int) sparse.Vector { return d.data.Sample(i) }

// LabelsOf returns sample i's label ids (aliases storage).
func (d *Dataset) LabelsOf(i int) []int32 { return d.data.Labels(i) }

// Data returns the full dataset as one coalesced batch.
func (d *Dataset) Data() sparse.Batch { return d.data }

// Validate checks every sample against the declared dimensions.
func (d *Dataset) Validate() error {
	if err := sparse.Validate(d.data, d.Features); err != nil {
		return fmt.Errorf("dataset %s: %w", d.Name, err)
	}
	for i := 0; i < d.Len(); i++ {
		for _, y := range d.LabelsOf(i) {
			if y < 0 || int(y) >= d.Labels {
				return fmt.Errorf("dataset %s: sample %d label %d out of range [0,%d)",
					d.Name, i, y, d.Labels)
			}
		}
	}
	return nil
}

// Head returns a dataset view of the first n samples (n clamped), used for
// evaluation slices.
func (d *Dataset) Head(n int) *Dataset {
	n = min(n, d.Len())
	var b sparse.Builder
	for i := 0; i < n; i++ {
		v := d.Sample(i)
		b.Add(v.Indices, v.Values, d.LabelsOf(i))
	}
	csr, err := b.CSR()
	if err != nil {
		// n >= 1 is guaranteed by callers; an empty head is a usage bug.
		panic(fmt.Sprintf("dataset: Head(%d) of empty dataset", n))
	}
	return New(d.Name+"/head", d.Features, d.Labels, csr)
}

// Stats summarizes the dataset in Table 1's terms.
type Stats struct {
	Name          string
	Features      int
	Labels        int
	Samples       int
	AvgFeatureNNZ float64
	// FeatureSparsity is AvgFeatureNNZ / Features (the "Feature Sparsity"
	// column of Table 1).
	FeatureSparsity float64
	AvgLabels       float64
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	s := Stats{Name: d.Name, Features: d.Features, Labels: d.Labels, Samples: d.Len()}
	var nnz, lab int64
	for i := 0; i < d.Len(); i++ {
		nnz += int64(d.Sample(i).NNZ())
		lab += int64(len(d.LabelsOf(i)))
	}
	if d.Len() > 0 {
		s.AvgFeatureNNZ = float64(nnz) / float64(d.Len())
		s.AvgLabels = float64(lab) / float64(d.Len())
	}
	if d.Features > 0 {
		s.FeatureSparsity = s.AvgFeatureNNZ / float64(d.Features)
	}
	return s
}

// ModelParams returns the parameter count of the paper's architecture
// (features→hidden→labels fully connected) on this dataset — the
// "# Model Parameters" column of Table 1.
func (d *Dataset) ModelParams(hidden int) int64 {
	return int64(d.Features)*int64(hidden) + int64(hidden)*int64(d.Labels) +
		int64(hidden) + int64(d.Labels)
}

// BatchIter iterates one shuffled epoch in fixed-size batches, materializing
// each batch in the requested memory layout.
type BatchIter struct {
	d      *Dataset
	perm   []int
	pos    int
	size   int
	layout sparse.Layout
	b      sparse.Builder
}

// Iter starts a shuffled epoch. seed fixes the permutation; batchSize must
// be positive.
func (d *Dataset) Iter(batchSize int, layout sparse.Layout, seed uint64) *BatchIter {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	it := &BatchIter{d: d, perm: make([]int, d.Len()), size: batchSize, layout: layout}
	it.reshuffle(seed)
	return it
}

// reshuffle starts another epoch on the same iterator: the permutation
// d.Iter(…, seed) would draw, written over the previous one in place.
func (it *BatchIter) reshuffle(seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	for i := range it.perm {
		it.perm[i] = i
	}
	rng.Shuffle(len(it.perm), func(i, j int) {
		it.perm[i], it.perm[j] = it.perm[j], it.perm[i]
	})
	it.pos = 0
}

// Next returns the next batch, or (nil, false) at epoch end. The final batch
// may be short. A coalesced batch is assembled in the iterator's own
// buffers, so it is valid only until the next Next.
func (it *BatchIter) Next() (sparse.Batch, bool) {
	if it.pos >= len(it.perm) {
		return nil, false
	}
	it.b.Reset()
	end := min(it.pos+it.size, len(it.perm))
	for ; it.pos < end; it.pos++ {
		i := it.perm[it.pos]
		v := it.d.Sample(i)
		it.b.Add(v.Indices, v.Values, it.d.LabelsOf(i))
	}
	batch, err := it.b.Build(it.layout)
	if err != nil {
		return nil, false
	}
	return batch, true
}

// Batches returns the number of batches in the epoch.
func (it *BatchIter) Batches() int {
	return (len(it.perm) + it.size - 1) / it.size
}
