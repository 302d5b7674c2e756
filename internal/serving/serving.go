// Package serving is the dynamic micro-batching pipeline between a traffic
// front end (cmd/slide-serve, serving a checkpoint, a demo trainer or a
// replication stream) and an immutable
// slide.Predictor snapshot.
//
// The paper's throughput thesis (Daghaghi et al., MLSys 2021) is that CPU
// inference speed comes from amortizing dispatch and memory traffic across
// a batch — SLIDE processes batches, never single samples. A serving front
// end, however, receives single samples from many independent clients. This
// package closes that gap with four pieces:
//
//   - Server is the HTTP front end. POST /predict is a one-sample
//     POST /predict/batch: both run one handler core that validates the
//     entries against one captured snapshot, answers the sampled ones one
//     at a time through the LSH path, and the exact ones through a single
//     Predictor.PredictEntries call (Direct mode) or Batcher.SubmitMany.
//     PredictEntries is the only exact call the package makes.
//   - Batcher coalesces concurrent entries into fused PredictEntries calls:
//     a bounded admission queue feeds a worker pool (sized to GOMAXPROCS).
//     One worker fills a batch at a time while the others flush: it
//     greedily drains whatever is already queued and stops collecting when
//     the batch reaches the maximum size, or after waiting at most the
//     maximum wait for more company, whichever comes first; then it hands
//     collecting on and flushes. So the entries of one client batch land in
//     one flush. (MaxWait bounds the latency batching *adds* once a worker
//     picks a request up; time spent queued behind a backlog is bounded by
//     the queue, not by MaxWait.) Every admission is a SubmitMany (Submit is SubmitMany of one
//     entry), and a context deadline travels with every entry it admits. A
//     full queue sheds new requests with ErrOverloaded — explicit
//     backpressure the HTTP layer maps to 429 + Retry-After — so overload
//     degrades by rejecting fast, never by queuing without bound.
//   - SnapshotManager versions predictors and hot-swaps them: Publish makes
//     a new snapshot current without stalling in-flight batches, which
//     finish on the snapshot they captured at flush time. Every request in
//     one coalesced batch is served by exactly one snapshot.
//   - RunLoadOpts is a deterministic closed-loop load generator (fixed seed,
//     fixed request set) used by the e2e tests and cmd/slide-loadgen.
package serving

import "github.com/slide-cpu/slide/slide"

// Predictor is the model surface the pipeline serves. *slide.Predictor
// implements it; tests substitute stubs (e.g. a blocking backend to fill
// the admission queue deterministically). It has one exact method: a single
// request is a batch of one entry.
type Predictor interface {
	// PredictEntries runs exact top-k prediction for a batch with per-entry
	// k (see slide.Predictor.PredictEntries): a coalesced flush, a Direct
	// mode client batch, or one /predict sample.
	PredictEntries(entries []slide.BatchEntry) ([][]int32, error)
	// PredictSampled is sub-linear LSH inference; it returns an error on
	// models without tables (the front end serves those exact instead).
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
