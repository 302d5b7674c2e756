package slide

import (
	"fmt"
	"sync/atomic"

	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// snapshotVersion numbers every Predictor ever snapshotted in this process,
// so serving pipelines can tell snapshots apart (and order them) without
// inspecting weights. Monotonic across all models.
var snapshotVersion atomic.Uint64

// Predictor is an immutable snapshot of a model's weights and LSH tables
// that serves inference concurrently: any number of goroutines may call any
// method at the same time, including while the source Model keeps training.
// Per-call scratch is drawn from an internal pool, so steady-state serving
// does not allocate beyond the returned result slices.
//
// A Predictor never changes — to pick up newer weights, take a fresh
// Snapshot and swap it in (e.g. via atomic.Pointer; see cmd/slide-serve).
type Predictor struct {
	p       *network.Predictor
	out     int
	version uint64
}

// Snapshot deep-copies the model's current weights and LSH tables into a
// Predictor. Call it between training calls — like Save, it must not run
// concurrently with TrainBatch or a Trainer session — but once it returns, the
// snapshot is fully independent of further training.
func (m *Model) Snapshot() *Predictor {
	return FromRaw(m.net.Snapshot(), snapshotVersion.Add(1))
}

// Version returns the process-wide snapshot sequence number: every Snapshot
// call yields a strictly larger version, so a serving pipeline can expose
// which snapshot served a response and order snapshots without comparing
// weights.
func (p *Predictor) Version() uint64 { return p.version }

// Steps returns the optimizer step count of the source model at snapshot
// time — "how fresh is this snapshot" for serving observability.
func (p *Predictor) Steps() int64 { return p.p.Steps() }

// NumLabels returns the output dimensionality (the label-space size).
func (p *Predictor) NumLabels() int { return p.out }

// NumFeatures returns the input dimensionality — the exclusive upper bound
// on valid feature indices. Serving front ends should validate untrusted
// indices against it before calling Predict.
func (p *Predictor) NumFeatures() int { return p.p.Config().InputDim }

// Sampled reports whether the snapshot carries LSH tables, i.e. whether
// PredictSampled is available.
func (p *Predictor) Sampled() bool { return p.p.Sampled() }

// CheckFinite scans the snapshot's weights for NaN/Inf (full bias scans, a
// deterministic strided sample of the weight vectors) and returns an error
// naming the first bad parameter. Serving pipelines call it at admission to
// quarantine poisoned snapshots instead of swapping them in.
func (p *Predictor) CheckFinite() error { return p.p.CheckFinite() }

// Predict returns the top-k label ids for a sparse input, best first. It
// ranks the full output layer (exact inference); results are bit-identical
// to Model.Predict on the same weights.
func (p *Predictor) Predict(indices []int32, values []float32, k int) []int32 {
	return p.p.Predict(sparse.Vector{Indices: indices, Values: values}, k)
}

// PredictSampled returns the top-k label ids ranked over the LSH-retrieved
// candidates only — sub-linear approximate inference. Returns ErrNoSampling
// for snapshots of models built without LSH sampling; callers should fall
// back to the exact Predict.
func (p *Predictor) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	out, err := p.p.PredictSampled(sparse.Vector{Indices: indices, Values: values}, k)
	if err != nil {
		return nil, ErrNoSampling
	}
	return out, nil
}

// Scores writes the full output-layer logits for a sparse input into out
// (len = NumLabels).
func (p *Predictor) Scores(indices []int32, values []float32, out []float32) {
	p.p.Scores(sparse.Vector{Indices: indices, Values: values}, out)
}

// PredictBatch runs exact top-k prediction for every sample (Labels fields
// are ignored) for a single caller: the same exact walk PredictEntries runs,
// with the output rows of every pass shared out over GOMAXPROCS goroutines.
// The result is index-aligned with samples and bit-identical to Predict on
// each. k <= 0 is an error, as in PredictEntries.
func (p *Predictor) PredictBatch(samples []Sample, k int) ([][]int32, error) {
	entries := make([]BatchEntry, len(samples))
	for i, s := range samples {
		entries[i] = BatchEntry{Indices: s.Indices, Values: s.Values, K: k}
	}
	xs, _, err := entryVectors(entries)
	if err != nil {
		return nil, err
	}
	return p.p.PredictBatch(xs, k), nil
}

// BatchEntry is one sample of a serving micro-batch: a sparse input plus
// its own top-k, so requests from different clients can share one coalesced
// batch without agreeing on k.
type BatchEntry struct {
	Indices []int32
	Values  []float32
	// K is the number of labels to return for this entry. K > NumLabels is
	// clamped (the Predict behavior); K <= 0 is an error — serving front
	// ends are expected to have resolved defaults before building entries.
	K int
}

// entryVectors checks a micro-batch — every entry has as many indices as
// values and a positive K — and renders it as the engine's inputs. It is the
// one entry check behind PredictEntries and PredictBatch, for local and
// replicated predictors alike.
func entryVectors(entries []BatchEntry) (xs []sparse.Vector, ks []int, err error) {
	xs, ks = make([]sparse.Vector, len(entries)), make([]int, len(entries))
	for i, e := range entries {
		if len(e.Indices) != len(e.Values) {
			return nil, nil, fmt.Errorf("slide: entry %d has %d indices but %d values",
				i, len(e.Indices), len(e.Values))
		}
		if e.K <= 0 {
			return nil, nil, fmt.Errorf("slide: entry %d has non-positive k %d", i, e.K)
		}
		xs[i], ks[i] = sparse.Vector{Indices: e.Indices, Values: e.Values}, e.K
	}
	return xs, ks, nil
}

// PredictEntries runs exact top-k prediction for a coalesced micro-batch
// with per-entry k. The output weight matrix streams from memory once per
// chunk of entries instead of once per entry — the micro-batching win the
// serving pipeline exists for. out[i] is bit-identical to
// Predict(e.Indices, e.Values, e.K) for every entry, mixed k included.
//
// The call runs on the caller's goroutine; like Predict, concurrency comes
// from calling it on many goroutines (internal/serving runs one call per
// batcher worker). Use PredictBatch when a single caller has the machine to
// itself.
func (p *Predictor) PredictEntries(entries []BatchEntry) ([][]int32, error) {
	xs, ks, err := entryVectors(entries)
	if err != nil {
		return nil, err
	}
	return p.p.PredictBatchK(xs, ks), nil
}

// Evaluate returns mean Precision@k over (up to) n samples of the dataset
// for a single caller (see PredictBatch). The result is deterministic
// (per-sample precisions are reduced in sample order) and equals
// Model.Evaluate on the same weights.
func (p *Predictor) Evaluate(test *Dataset, n, k int) (float64, error) {
	if test == nil || test.Len() == 0 {
		return 0, ErrEmptyBatch
	}
	return p.p.Evaluate(test.d.Data(), min(n, test.Len()), k), nil
}
