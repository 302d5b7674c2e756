// Package serving is the dynamic micro-batching pipeline between a traffic
// front end (cmd/slide-serve) and an immutable slide.Predictor snapshot.
//
// The paper's throughput thesis (Daghaghi et al., MLSys 2021) is that CPU
// inference speed comes from amortizing dispatch and memory traffic across
// a batch — SLIDE processes batches, never single samples. A serving front
// end, however, receives single samples from many independent clients. This
// package closes that gap with three pieces:
//
//   - Batcher coalesces concurrent predict requests into fused
//     Predictor.PredictEntries calls: a bounded admission queue feeds a
//     worker pool (sized to GOMAXPROCS); a worker greedily drains whatever
//     is already queued and flushes when the batch reaches the maximum
//     size, or after waiting at most the maximum wait for more company,
//     whichever comes first. (MaxWait bounds the latency batching *adds*
//     once a worker picks a request up; time spent queued behind a backlog
//     is bounded by the queue, not by MaxWait.) A full queue sheds new
//     requests with ErrOverloaded — explicit backpressure the HTTP layer
//     maps to 429 + Retry-After — so overload degrades by rejecting fast,
//     never by queuing without bound.
//   - SnapshotManager versions predictors and hot-swaps them: Publish makes
//     a new snapshot current without stalling in-flight batches, which
//     finish on the snapshot they captured at flush time. Every request in
//     one coalesced batch is served by exactly one snapshot.
//   - RunLoad is a deterministic closed-loop load generator (fixed seed,
//     fixed request set) used by the e2e tests, BenchmarkServingPipeline,
//     and cmd/slide-loadgen.
package serving

import "github.com/slide-cpu/slide/slide"

// Predictor is the model surface the pipeline serves. *slide.Predictor
// implements it; tests substitute stubs (e.g. a blocking backend to fill
// the admission queue deterministically).
type Predictor interface {
	// PredictEntries runs exact top-k prediction for a coalesced batch
	// with per-entry k (see slide.Predictor.PredictEntries).
	PredictEntries(entries []slide.BatchEntry) ([][]int32, error)
	// Predict is the single-sample exact path (direct, non-batched mode).
	Predict(indices []int32, values []float32, k int) []int32
	// PredictSampled is sub-linear LSH inference; it returns an error on
	// models without tables (callers fall back to Predict).
	PredictSampled(indices []int32, values []float32, k int) ([]int32, error)
	// Sampled reports whether PredictSampled is available (LSH tables
	// present).
	Sampled() bool
	// Version identifies the snapshot (strictly increasing per snapshot).
	Version() uint64
	// Steps is the optimizer step count at snapshot time.
	Steps() int64
	// NumLabels is the label-space size (upper bound for k).
	NumLabels() int
	// NumFeatures bounds valid feature indices.
	NumFeatures() int
}
