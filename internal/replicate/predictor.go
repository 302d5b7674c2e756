package replicate

import (
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/slide"
)

var _ serving.Predictor = (*Served)(nil)

// Served adapts a replicated network.Predictor to the serving.Predictor
// interface, carrying the hub replication version in place of the local
// process-wide snapshot counter — across a cluster, version equality
// means weight equality.
type Served struct {
	p       *network.Predictor
	version uint64
}

// NewServed wraps a replicated predictor at the given hub version.
func NewServed(p *network.Predictor, version uint64) *Served {
	return &Served{p: p, version: version}
}

// Version returns the hub replication version of the applied snapshot.
func (s *Served) Version() uint64 { return s.version }

// Steps returns the trainer's optimizer step count at snapshot time.
func (s *Served) Steps() int64 { return s.p.Steps() }

// NumLabels returns the label-space size.
func (s *Served) NumLabels() int { return s.p.Config().OutputDim }

// NumFeatures bounds valid feature indices.
func (s *Served) NumFeatures() int { return s.p.Config().InputDim }

// Sampled reports whether LSH-sampled inference is available.
func (s *Served) Sampled() bool { return s.p.Sampled() }

// CheckFinite scans the snapshot's weights for NaN/Inf — the serving-side
// quarantine hook, same contract as slide.Predictor.CheckFinite.
func (s *Served) CheckFinite() error { return s.p.CheckFinite() }

// SnapshotPrecision names the output-layer storage the replica serves from
// (f32|bf16|int8) — int8 on a quantized stream. Surfaced on the
// replica's /stats.
func (s *Served) SnapshotPrecision() string { return s.p.PrecisionName() }

// PackedBytes is the serialized size of the output-layer representation.
func (s *Served) PackedBytes() int64 { return s.p.PackedBytes() }

// Predict is single-sample exact top-k.
func (s *Served) Predict(indices []int32, values []float32, k int) []int32 {
	return s.p.Predict(sparse.Vector{Indices: indices, Values: values}, k)
}

// PredictSampled is sub-linear LSH inference.
func (s *Served) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	return s.p.PredictSampled(sparse.Vector{Indices: indices, Values: values}, k)
}

// PredictEntries runs coalesced exact top-k with per-entry k — the same
// entry check and the same exact walk as slide.Predictor.PredictEntries, so
// a replica's responses are bit-identical to the trainer's at the same
// version.
func (s *Served) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	xs, ks, err := slide.EntryVectors(entries)
	if err != nil {
		return nil, err
	}
	return s.p.PredictBatchK(xs, ks), nil
}
