package dataset

import (
	"fmt"
	"io"
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/sparse"
)

// Source is a resettable batch iterator — the interface the three built-in
// sources (MemorySource, FileSource, SyntheticSource) share behind the
// public slide.DataSource constructors.
//
// A Source yields one *pass* (epoch) of batches per Reset: Next returns
// successive batches until the pass is exhausted, then io.EOF; Reset begins
// a new pass. The seed passed to Reset drives any shuffling, so a pass is a
// pure function of (source construction, seed) — the property the trainer's
// bit-identical resume and its equivalence to the historical epoch loop
// rest on.
// Implementations that cannot shuffle (sequential streams) may ignore the
// seed. Sources are not safe for concurrent use.
type Source interface {
	// Name labels the workload for logs and reports.
	Name() string
	// Features is the input dimensionality (exclusive index bound).
	Features() int
	// Labels is the label-space size.
	Labels() int
	// Reset begins a new pass. seed fixes the pass's shuffle (where the
	// implementation shuffles at all).
	Reset(seed uint64) error
	// Next returns the next batch of the current pass, or io.EOF when the
	// pass is exhausted. The final batch of a pass may be short. The
	// returned batch is valid until the next Next or Reset call.
	Next() (sparse.Batch, error)
	// BatchesPerEpoch returns the number of batches one pass yields; the
	// trainer fast-forwards a resumed session to its mid-epoch position by
	// it.
	BatchesPerEpoch() int
}

// MemorySource adapts an in-memory Dataset to the Source contract. Each pass
// iterates d.Iter(batchSize, layout, seed) — the exact iterator the
// historical epoch loop drove — so a MemorySource pass is bit-identical to
// that loop's epoch over the same dataset with the same seed.
type MemorySource struct {
	d      *Dataset
	size   int
	layout sparse.Layout
	it     *BatchIter
}

// NewMemorySource wraps an in-memory dataset. batchSize must be positive and
// d non-empty. Reset must be called before the first Next.
func NewMemorySource(d *Dataset, batchSize int, layout sparse.Layout) (*MemorySource, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("dataset: memory source needs a non-empty dataset")
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("dataset: batch size %d must be positive", batchSize)
	}
	return &MemorySource{d: d, size: batchSize, layout: layout}, nil
}

// Name implements Source.
func (s *MemorySource) Name() string { return s.d.Name }

// Features implements Source.
func (s *MemorySource) Features() int { return s.d.Features }

// Labels implements Source.
func (s *MemorySource) Labels() int { return s.d.Labels }

// Reset implements Source: a fresh shuffled pass over the dataset, drawn
// into the previous pass's permutation and batch buffers.
func (s *MemorySource) Reset(seed uint64) error {
	if s.it == nil {
		s.it = s.d.Iter(s.size, s.layout, seed)
	} else {
		s.it.reshuffle(seed)
	}
	return nil
}

// Next implements Source. A coalesced batch is valid until the next Next or
// Reset: the following batch is assembled over it.
func (s *MemorySource) Next() (sparse.Batch, error) {
	if s.it == nil {
		return nil, fmt.Errorf("dataset: memory source used before Reset")
	}
	b, ok := s.it.Next()
	if !ok {
		return nil, io.EOF
	}
	return b, nil
}

// BatchesPerEpoch implements Source.
func (s *MemorySource) BatchesPerEpoch() int {
	return (s.d.Len() + s.size - 1) / s.size
}

// SyntheticSource streams the planted-model synthetic workload without ever
// materializing a dataset: each pass draws PassSize fresh samples from the
// generator, batch by batch. Pass p re-seeds the generator RNG with the
// Reset seed, so a pass is reproducible while successive passes (different
// seeds) see fresh data — the infinite-stream training scenario.
type SyntheticSource struct {
	cfg      SyntheticConfig
	zipf     *Zipf
	size     int
	passSize int

	rng    *rand.Rand
	idxSet map[int32]float32
	b      sparse.Builder
	left   int
	ready  bool
}

// NewSyntheticSource builds a streaming generator source. cfg.TrainSize is
// the pass length (samples per epoch); batchSize must be positive.
func NewSyntheticSource(cfg SyntheticConfig, batchSize int) (*SyntheticSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("dataset: batch size %d must be positive", batchSize)
	}
	zipf, err := NewZipf(cfg.Labels, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	return &SyntheticSource{
		cfg: cfg, zipf: zipf, size: batchSize, passSize: cfg.TrainSize,
		idxSet: make(map[int32]float32),
	}, nil
}

// Name implements Source.
func (s *SyntheticSource) Name() string { return s.cfg.Name }

// Features implements Source.
func (s *SyntheticSource) Features() int { return s.cfg.Features }

// Labels implements Source.
func (s *SyntheticSource) Labels() int { return s.cfg.Labels }

// Reset implements Source: a fresh pass of passSize generated samples.
func (s *SyntheticSource) Reset(seed uint64) error {
	s.rng = rand.New(rand.NewPCG(s.cfg.Seed, seed))
	s.left = s.passSize
	s.ready = true
	return nil
}

// Next implements Source.
func (s *SyntheticSource) Next() (sparse.Batch, error) {
	if !s.ready {
		return nil, fmt.Errorf("dataset: synthetic source used before Reset")
	}
	if s.left == 0 {
		return nil, io.EOF
	}
	n := min(s.size, s.left)
	s.left -= n
	s.b.Reset()
	for i := 0; i < n; i++ {
		idx, val, labels := synthSample(&s.cfg, s.zipf, s.rng, s.idxSet)
		s.b.Add(idx, val, labels)
	}
	csr, err := s.b.CSR()
	if err != nil {
		return nil, err
	}
	return csr, nil
}

// BatchesPerEpoch implements Source.
func (s *SyntheticSource) BatchesPerEpoch() int {
	return (s.passSize + s.size - 1) / s.size
}
