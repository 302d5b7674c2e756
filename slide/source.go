package slide

import (
	"fmt"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Batch is an opaque, immutable training batch in the coalesced CSR layout
// (§4.1) — what a DataSource yields to a Trainer. Build one from samples
// with NewBatch; the built-in sources construct theirs directly from
// already-validated storage with zero copies.
type Batch struct {
	b sparse.Batch
}

// Len returns the number of samples in the batch (0 for the zero Batch).
func (b Batch) Len() int {
	if b.b == nil {
		return 0
	}
	return b.b.Len()
}

// NewBatch validates samples (paired lengths, strictly ascending indices)
// and packs them into the coalesced layout. Feature/label ranges are checked
// against the model when the batch reaches a Trainer. Returns ErrEmptyBatch
// for no samples and a *BadSampleError naming the offending sample otherwise.
func NewBatch(samples []Sample) (Batch, error) {
	if len(samples) == 0 {
		return Batch{}, ErrEmptyBatch
	}
	var bld sparse.Builder
	for i, s := range samples {
		if err := validateSample(s, -1, -1); err != nil {
			return Batch{}, &BadSampleError{Sample: i, Err: err}
		}
		bld.Add(s.Indices, s.Values, s.Labels)
	}
	csr, err := bld.CSR()
	if err != nil {
		return Batch{}, err
	}
	return Batch{b: csr}, nil
}

// DataSource feeds a Trainer batches of training data, one pass ("epoch")
// per Reset. The contract:
//
//   - Reset(seed) begins a new pass; seed drives any shuffling, so a pass is
//     a pure function of (source, seed). Sources that cannot shuffle (e.g.
//     sequential streams) may ignore the seed.
//   - Next returns the pass's batches in order, then io.EOF. The final batch
//     may be short. A returned Batch is valid until the next Next or Reset.
//
// Three implementations ship with the package — NewDatasetSource (in-memory,
// iteration bit-identical to the historical epoch loop), NewFileSource
// (streaming XMC/SVMlight file, out-of-core with bounded memory), and
// NewSyntheticSource (generator, never materialized) — and any type
// implementing the interface can feed a Trainer: batches built with NewBatch
// are range-validated against the model as they arrive.
type DataSource interface {
	// Name labels the workload for logs and reports.
	Name() string
	// Features is the input dimensionality (exclusive index bound).
	Features() int
	// NumLabels is the label-space size.
	NumLabels() int
	// Reset begins a new pass with the given shuffle seed.
	Reset(seed uint64) error
	// Next returns the next batch, or io.EOF at the end of the pass.
	Next() (Batch, error)
}

// internalSource wraps a dataset.Source as a DataSource whose batches are
// trusted (validated at parse/generation time), so the Trainer skips
// per-batch range checks.
type internalSource struct {
	s dataset.Source
}

func (w internalSource) Name() string            { return w.s.Name() }
func (w internalSource) Features() int           { return w.s.Features() }
func (w internalSource) NumLabels() int          { return w.s.Labels() }
func (w internalSource) Reset(seed uint64) error { return w.s.Reset(seed) }

func (w internalSource) Next() (Batch, error) {
	b, err := w.s.Next()
	if err != nil {
		return Batch{}, err
	}
	return Batch{b: b}, nil
}

// trusted exposes the inner source to the Trainer (and marks the batches as
// pre-validated).
func (w internalSource) trusted() dataset.Source { return w.s }

// sizedSource additionally forwards the known batches-per-epoch, which the
// Trainer's resume fast-forward requires.
type sizedSource struct {
	internalSource
	sized dataset.Sized
}

// BatchesPerEpoch returns the number of batches one pass yields.
func (w sizedSource) BatchesPerEpoch() int { return w.sized.BatchesPerEpoch() }

// wrapInternal picks the sized wrapper when the inner source knows its pass
// length.
func wrapInternal(s dataset.Source) DataSource {
	if sized, ok := s.(dataset.Sized); ok {
		return sizedSource{internalSource{s}, sized}
	}
	return internalSource{s}
}

// NewDatasetSource adapts an in-memory Dataset: each pass is a seeded
// shuffle in batches of batchSize, bit-identical to the iteration of the
// historical epoch loop (d.Iter with seed = optimizer step + 1).
func NewDatasetSource(d *Dataset, batchSize int) (DataSource, error) {
	if d == nil || d.Len() == 0 {
		return nil, ErrEmptyBatch
	}
	src, err := dataset.NewMemorySource(d.d, batchSize, sparse.Coalesced)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return wrapInternal(src), nil
}

// NewFileSource streams an XMC/SVMlight-format file (the format OpenXMC
// reads and slide-data writes) as training batches without loading it into
// memory — the out-of-core path for datasets larger than RAM. Each pass
// re-reads the file; shuffleWindow > 1 decorrelates the stream by emitting a
// uniform draw from a rolling window of that many samples (0 or 1 preserves
// file order). Resident memory is bounded by the window plus one batch,
// independent of file size.
func NewFileSource(path string, batchSize, shuffleWindow int) (DataSource, error) {
	src, err := dataset.NewFileSource(path, batchSize, shuffleWindow)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return wrapInternal(src), nil
}

// NewSyntheticSource streams the planted-model synthetic workload — the
// AmazonLike/WikiLike generators as an endless source that never
// materializes a dataset. workload is "amazon" or "wiki"; each pass draws
// the scaled workload's train-split size in fresh samples, so successive
// epochs see new data.
func NewSyntheticSource(workload string, scale float64, batchSize int, seed uint64) (DataSource, error) {
	var cfg dataset.SyntheticConfig
	switch workload {
	case "amazon":
		cfg = dataset.Amazon670K(scale, seed)
	case "wiki":
		cfg = dataset.WikiLSH325K(scale, seed)
	default:
		return nil, fmt.Errorf("slide: unknown synthetic workload %q (amazon|wiki)", workload)
	}
	src, err := dataset.NewSyntheticSource(cfg, batchSize)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return wrapInternal(src), nil
}
