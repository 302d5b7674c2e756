// Package slide is the public API of the SLIDE-on-CPU reproduction: a
// locality-sensitive-hashing based sparse training engine for very wide
// classification and embedding networks (Chen et al. 2019), with the
// MLSys 2021 optimizations — vectorized kernels, coalesced memory layouts,
// BF16 quantization modes, and HOGWILD-style asynchronous data parallelism
// (Daghaghi et al., "Accelerating SLIDE Deep Learning on Modern CPUs").
//
// Quick start — a training session with evaluation, checkpoints, and live
// snapshot publication:
//
//	train, test, _ := slide.AmazonLike(0.01, 42)
//	m, _ := slide.New(train.Features(), 128, train.NumLabels(),
//		slide.WithDWTA(4, 16),
//		slide.WithLearningRate(1e-4))
//
//	src, _ := slide.NewDatasetSource(train, 256) // or NewFileSource (streaming)
//	t, _ := slide.NewTrainer(m, src,
//		slide.WithEpochs(3),
//		slide.WithCheckpoints("model.slide", 1000), // atomic write + resume
//		slide.WithOnEpoch(func(e slide.EpochEvent) {
//			p1, _ := m.Evaluate(test, 500, 1)
//			fmt.Printf("epoch %d: loss %.4f P@1 %.3f\n", e.Epoch+1, e.Stats.MeanLoss, p1)
//		}))
//	report, _ := t.Run(ctx) // ctx cancellation is a graceful stop
//
//	// Freeze the current weights into an immutable Predictor and serve it
//	// from any number of goroutines — even while training continues; with
//	// WithSnapshots(n, func(p *slide.Predictor) { srv.Publish(p) }) a
//	// session publishes fresh versions into the serving pipeline on
//	// schedule.
//	p := m.Snapshot()
//	s := test.Sample(0)
//	top := p.Predict(s.Indices, s.Values, 5)              // exact top-5
//	approx, _ := p.PredictSampled(s.Indices, s.Values, 5) // sub-linear LSH inference
//	_, _, _ = report, top, approx
//
// Model.TrainBatch runs one optimizer step on a caller-built batch, outside
// any session; a Trainer over NewDatasetSource(train, batch) with
// WithEpochs(1) runs one shuffled epoch. See the examples/ directory for full programs,
// cmd/slide-train for the training CLI (streaming files, LR schedules,
// checkpoint schedules, graceful cancellation), cmd/slide-serve for the HTTP
// serving front end, and cmd/slide-bench for the paper's experiment harness.
package slide

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Precision selects the training quantization mode (§4.4 of the paper).
type Precision int

const (
	// FP32 trains in float32 throughout.
	FP32 Precision = iota
	// BF16Activations keeps parameters FP32 but rounds activations to
	// bfloat16 values, on which the float32 kernels then run.
	BF16Activations
	// BF16Full stores weights in bfloat16 and rounds activations to it
	// (FP32 ADAM moments); the float32 kernels run on rows widened on load.
	BF16Full
)

// MemoryLayout selects the parameter placement (§4.1 of the paper).
type MemoryLayout int

const (
	// Coalesced reserves one contiguous block per layer (optimized).
	Coalesced MemoryLayout = iota
	// Fragmented allocates every weight vector separately (naive SLIDE,
	// kept for ablation).
	Fragmented
)

// KernelMode selects the compute-kernel implementation (§4.2).
type KernelMode int

const (
	// VectorKernels selects the best vectorized tier the host supports:
	// hand-written AVX-512 or AVX2 assembly on CPUs that report the
	// features (the default, chosen automatically at startup), or the
	// portable 16-lane unrolled Go kernels elsewhere.
	VectorKernels KernelMode = iota
	// ScalarKernels are naive loops (the "-no-avx" ablation).
	ScalarKernels
	// PortableKernels forces the portable Go vector tier even when the
	// host has the assembly tiers (cross-arch reference measurements).
	PortableKernels
	// AVX2Kernels forces the 8-lane ymm assembly tier (clamped down the
	// chain when the host lacks AVX2+FMA).
	AVX2Kernels
	// AVX512Kernels forces the 16-lane zmm assembly tier (clamped down the
	// chain when the host lacks AVX-512).
	AVX512Kernels
)

// String implements fmt.Stringer, for startup logs and flag round-trips.
func (m KernelMode) String() string {
	switch m {
	case VectorKernels:
		return "vector"
	case ScalarKernels:
		return "scalar"
	case PortableKernels:
		return "portable"
	case AVX2Kernels:
		return "avx2"
	case AVX512Kernels:
		return "avx512"
	default:
		return "unknown"
	}
}

// AvailableKernelModes returns every kernel mode this host can execute,
// fastest tier first — what serving and training front ends log at startup
// so deployments can see which tiers CPUID actually enabled, without
// reaching into internal packages. VectorKernels (the auto mode) is omitted:
// it always resolves to the first entry.
func AvailableKernelModes() []KernelMode {
	var out []KernelMode
	for _, m := range simd.AvailableModes() {
		switch m {
		case simd.AVX512:
			out = append(out, AVX512Kernels)
		case simd.AVX2:
			out = append(out, AVX2Kernels)
		case simd.Vector:
			out = append(out, PortableKernels)
		case simd.Scalar:
			out = append(out, ScalarKernels)
		}
	}
	return out
}

// SetKernelMode switches the process-global kernel implementation. Do not
// flip it while models are training. The SLIDE_KERNEL_MODE environment
// variable (scalar|vector|avx2|avx512) selects the startup mode; this
// call overrides it. Unsupported assembly tiers clamp down the chain
// (avx512 → avx2 → portable).
func SetKernelMode(m KernelMode) {
	switch m {
	case ScalarKernels:
		simd.SetMode(simd.Scalar)
	case PortableKernels:
		simd.SetMode(simd.Vector)
	case AVX2Kernels:
		simd.SetMode(simd.AVX2)
	case AVX512Kernels:
		simd.SetMode(simd.AVX512)
	default:
		simd.SetMode(simd.Best())
	}
}

// KernelInfo reports the active kernel tier ("avx512", "avx2", "vector" or
// "scalar"), for logging and benchmark metadata.
func KernelInfo() string { return simd.CurrentMode().String() }

// Sample is one training example: a sparse feature vector (sorted, unique
// indices) and its label set.
type Sample struct {
	Indices []int32
	Values  []float32
	Labels  []int32
}

// config collects option values before validation.
type config struct {
	net network.Config
}

// Option configures New.
type Option func(*config)

// WithDWTA samples the output layer with densified winner-take-all hashing
// using k hashes per table and l tables (the paper's choice for extreme
// classification).
func WithDWTA(k, l int) Option {
	return func(c *config) {
		c.net.Hash = network.DWTA
		c.net.K, c.net.L = k, l
		c.net.NoSampling = false
	}
}

// WithSimHash samples the output layer with signed-random-projection
// hashing (the paper's choice for word2vec/Text8).
func WithSimHash(k, l int) Option {
	return func(c *config) {
		c.net.Hash = network.SimHash
		c.net.K, c.net.L = k, l
		c.net.NoSampling = false
	}
}

// WithFullSoftmax disables LSH sampling: every output neuron is active for
// every sample (the dense baseline configuration).
func WithFullSoftmax() Option {
	return func(c *config) { c.net.NoSampling = true }
}

// WithUniformSampling replaces LSH retrieval with uniform random negative
// sampling at the same active-set budget — the ablation isolating what
// adaptive, input-dependent sampling contributes.
func WithUniformSampling() Option {
	return func(c *config) { c.net.UniformSampling = true }
}

// WithLearningRate sets the ADAM learning rate (default 1e-4, §5.3).
func WithLearningRate(lr float64) Option {
	return func(c *config) { c.net.LR = lr }
}

// WithAdam sets the ADAM moment/epsilon hyperparameters.
func WithAdam(beta1, beta2, eps float64) Option {
	return func(c *config) { c.net.Beta1, c.net.Beta2, c.net.Eps = beta1, beta2, eps }
}

// WithPrecision selects the quantization mode (default FP32).
func WithPrecision(p Precision) Option {
	return func(c *config) {
		switch p {
		case BF16Activations:
			c.net.Precision = layer.BF16Act
		case BF16Full:
			c.net.Precision = layer.BF16Both
		default:
			c.net.Precision = layer.FP32
		}
	}
}

// WithMemoryLayout selects the parameter placement (default Coalesced).
func WithMemoryLayout(m MemoryLayout) Option {
	return func(c *config) {
		if m == Fragmented {
			c.net.Placement = layer.Scattered
		} else {
			c.net.Placement = layer.Contiguous
		}
	}
}

// WithWorkers sets the HOGWILD worker count (default GOMAXPROCS). Several
// HOGWILD workers race on shared gradient rows by design; a run that must be
// race-clean or reproducible uses one worker or WithShards.
func WithWorkers(n int) Option {
	return func(c *config) { c.net.Workers = n }
}

// WithShards partitions the output layer into n contiguous shards, each
// owning its rows' LSH tables, active-set budget, and RNG stream, and
// replaces the HOGWILD trainer with the deterministic scatter-gather
// engine: batches run as barrier-separated phases striped over the worker
// pool, so trained weights, checkpoints, and deltas are bit-identical for
// any WithWorkers value. The shard count is a model property (it is
// checkpointed and fingerprinted); the worker count remains an execution
// resource. Requires LSH sampling.
func WithShards(n int) Option {
	return func(c *config) { c.net.Shards = n }
}

// WithActiveSet bounds LSH sampling: the active set is topped up to min with
// random neurons and capped at max (0 = uncapped). True labels always stay
// active.
func WithActiveSet(min, max int) Option {
	return func(c *config) { c.net.MinActive, c.net.MaxActive = min, max }
}

// BucketPolicy selects how a full LSH hash bucket absorbs a new insertion.
type BucketPolicy int

const (
	// FIFO overwrites the oldest entry (SLIDE's default policy).
	FIFO BucketPolicy = iota
	// Reservoir keeps a uniform sample of everything ever inserted.
	Reservoir
)

// String implements fmt.Stringer.
func (p BucketPolicy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Reservoir:
		return "reservoir"
	default:
		return "unknown"
	}
}

// lshPolicy maps the public policy onto the internal lsh constant.
func (p BucketPolicy) lshPolicy() lsh.BucketPolicy {
	if p == Reservoir {
		return lsh.Reservoir
	}
	return lsh.FIFO
}

// WithBuckets sets hash-table bucket capacity and the eviction policy a
// full bucket applies (default FIFO).
func WithBuckets(capacity int, policy BucketPolicy) Option {
	return func(c *config) {
		c.net.BucketCap = capacity
		c.net.BucketPolicy = policy.lshPolicy()
	}
}

// WithRebuildSchedule sets the initial hash-table rebuild period in batches
// and its multiplicative growth (SLIDE's exponential backoff).
func WithRebuildSchedule(every int, growth float64) Option {
	return func(c *config) { c.net.RebuildEvery = every; c.net.RebuildGrowth = growth }
}

// WithLinearHidden makes the hidden layer linear (identity activation), the
// word2vec configuration; default is ReLU.
func WithLinearHidden() Option {
	return func(c *config) { c.net.HiddenActivation = layer.Linear }
}

// WithHiddenStack inserts additional dense ReLU hidden layers between the
// first hidden layer and the sampled output: the architecture becomes
// input → hidden → dims... → output. The paper evaluates single-hidden
// networks; deeper stacks are the natural SLIDE extension.
func WithHiddenStack(dims ...int) Option {
	return func(c *config) { c.net.HiddenLayers = append([]int(nil), dims...) }
}

// WithSeed fixes all randomness (initialization, hashing, sampling).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.net.Seed = seed }
}

// Model is a trainable SLIDE network. Its inference methods (Predict,
// PredictSampled, Scores, Evaluate) are thin wrappers over a private
// predictor reading the live weights — convenient between training calls,
// but not safe concurrently with them. Snapshot freezes the weights into a
// Predictor that serves any number of goroutines while training continues.
type Model struct {
	net *network.Network
}

// New builds a model with the given layer sizes. Without a sampling option
// (WithDWTA / WithSimHash / WithFullSoftmax) it defaults to DWTA with
// K=6, L=50.
func New(inputDim, hiddenDim, outputDim int, opts ...Option) (*Model, error) {
	c := config{net: network.Config{
		InputDim:  inputDim,
		HiddenDim: hiddenDim,
		OutputDim: outputDim,
		Hash:      network.DWTA,
		K:         6,
		L:         50,
	}}
	for _, o := range opts {
		o(&c)
	}
	net, err := network.New(&c.net)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return &Model{net: net}, nil
}

// TrainStats reports one training call.
type TrainStats struct {
	// Samples processed.
	Samples int
	// MeanLoss is the mean sampled-softmax cross-entropy per sample.
	MeanLoss float64
	// MeanActive is the mean active-set size per sample — the sparsity the
	// LSH sampling achieved (equals the output size under full softmax).
	MeanActive float64
}

// ErrEmptyBatch is returned when a training call receives no samples.
var ErrEmptyBatch = errors.New("slide: empty batch")

// ErrBadSample is the sentinel every *BadSampleError matches via errors.Is:
// a sparse input that would otherwise panic deep inside the kernels
// (mismatched lengths, unsorted or duplicate indices, out-of-range feature
// or label ids) is rejected at the API boundary instead.
var ErrBadSample = errors.New("slide: bad sample")

// BadSampleError reports which sample of a call failed validation and why.
type BadSampleError struct {
	// Sample is the index of the offending sample within the call's slice
	// (0 for single-sample calls).
	Sample int
	// Err describes the defect.
	Err error
}

// Error implements error.
func (e *BadSampleError) Error() string {
	return fmt.Sprintf("slide: bad sample %d: %v", e.Sample, e.Err)
}

// Unwrap exposes the underlying defect.
func (e *BadSampleError) Unwrap() error { return e.Err }

// Is matches ErrBadSample.
func (e *BadSampleError) Is(target error) bool { return target == ErrBadSample }

// validateSample checks one sample's structure (paired lengths, strictly
// ascending indices) and ranges (features < dim, labels < labelDim; negative
// dims skip the respective range check).
func validateSample(s Sample, dim, labelDim int) error {
	if len(s.Indices) != len(s.Values) {
		return fmt.Errorf("%d indices but %d values", len(s.Indices), len(s.Values))
	}
	if err := (sparse.Vector{Indices: s.Indices, Values: s.Values}).Validate(dim); err != nil {
		return err
	}
	if labelDim >= 0 {
		for _, y := range s.Labels {
			if y < 0 || int(y) >= labelDim {
				return fmt.Errorf("label %d out of range [0,%d)", y, labelDim)
			}
		}
	}
	return nil
}

// TrainBatch runs one HOGWILD gradient step over the samples. Invalid
// samples are rejected with a *BadSampleError (errors.Is ErrBadSample)
// naming the offending index.
func (m *Model) TrainBatch(samples []Sample) (TrainStats, error) {
	if len(samples) == 0 {
		return TrainStats{}, ErrEmptyBatch
	}
	cfg := m.net.Config()
	var b sparse.Builder
	for i, s := range samples {
		if err := validateSample(s, cfg.InputDim, cfg.OutputDim); err != nil {
			return TrainStats{}, &BadSampleError{Sample: i, Err: err}
		}
		b.Add(s.Indices, s.Values, s.Labels)
	}
	batch, err := b.CSR()
	if err != nil {
		return TrainStats{}, err
	}
	st := m.net.TrainBatch(batch)
	return batchStats(st), nil
}

func batchStats(st network.BatchStats) TrainStats {
	out := TrainStats{Samples: st.Samples}
	if st.Samples > 0 {
		out.MeanLoss = st.Loss / float64(st.Samples)
		out.MeanActive = float64(st.ActiveSum) / float64(st.Samples)
	}
	return out
}

// ErrNoSampling is returned by PredictSampled on models built without LSH
// sampling (WithFullSoftmax / WithUniformSampling): there is no candidate
// structure to retrieve from, and callers should fall back to the exact
// Predict.
var ErrNoSampling = errors.New("slide: PredictSampled requires an LSH-sampled model")

// Predict returns the top-k label ids for a sparse input, best first. It
// runs the full output layer (exact). Invalid inputs (unsorted, duplicate
// or out-of-range indices, mismatched lengths) return a *BadSampleError.
// Like all Model inference it reads the live weights and is not safe
// concurrently with training — use Snapshot for a concurrency-safe
// Predictor.
func (m *Model) Predict(indices []int32, values []float32, k int) ([]int32, error) {
	if err := validateSample(Sample{Indices: indices, Values: values}, m.net.Config().InputDim, -1); err != nil {
		return nil, &BadSampleError{Err: err}
	}
	return m.net.Predict(sparse.Vector{Indices: indices, Values: values}, k), nil
}

// PredictSampled returns the top-k label ids ranked over the LSH-retrieved
// candidates only — sub-linear approximate inference. Invalid inputs return
// a *BadSampleError; models built without LSH sampling return ErrNoSampling.
func (m *Model) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	if err := validateSample(Sample{Indices: indices, Values: values}, m.net.Config().InputDim, -1); err != nil {
		return nil, &BadSampleError{Err: err}
	}
	out, err := m.net.PredictSampled(sparse.Vector{Indices: indices, Values: values}, k)
	if err != nil {
		return nil, ErrNoSampling
	}
	return out, nil
}

// Scores writes the full output-layer logits for a sparse input into out
// (len = output dimension). Invalid inputs return a *BadSampleError. Not
// safe to call concurrently with training.
func (m *Model) Scores(indices []int32, values []float32, out []float32) error {
	if err := validateSample(Sample{Indices: indices, Values: values}, m.net.Config().InputDim, -1); err != nil {
		return &BadSampleError{Err: err}
	}
	if len(out) != m.net.Config().OutputDim {
		return fmt.Errorf("slide: Scores buffer has %d entries, output dimension is %d",
			len(out), m.net.Config().OutputDim)
	}
	m.net.Scores(sparse.Vector{Indices: indices, Values: values}, out)
	return nil
}

// Evaluate returns mean Precision@k over (up to) n samples of the dataset.
func (m *Model) Evaluate(test *Dataset, n, k int) (float64, error) {
	if test == nil || test.Len() == 0 {
		return 0, ErrEmptyBatch
	}
	return m.net.Evaluate(test.d.Data(), min(n, test.Len()), k), nil
}

// Embedding copies the hidden-layer weight column of input feature i — the
// learned embedding vector in word2vec-style models. It returns nil for an i
// outside [0, InputDim).
func (m *Model) Embedding(i int) []float32 {
	if i < 0 || i >= m.net.Config().InputDim {
		return nil
	}
	out := make([]float32, m.net.Config().HiddenDim)
	// A float32 column comes back as a view and is copied; a bfloat16 one is
	// widened straight into out, where the copy moves nothing.
	copy(out, m.net.Hidden().Col(i, out))
	return out
}

// Steps returns the number of optimizer steps applied so far.
func (m *Model) Steps() int64 { return m.net.Step() }

// Save writes a checkpoint (configuration, weights, optimizer state) to w.
// Do not call concurrently with training.
func (m *Model) Save(w io.Writer) error { return m.net.Save(w) }

// SaveFile writes a checkpoint to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("slide: %w", err)
	}
	if err := m.net.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load restores a model from a checkpoint written by Save; training resumes
// at the saved optimizer step, with the hash tables the checkpoint carried
// and — for the HOGWILD engine, whose results depend on it — the worker
// count it was written at, whatever this host's GOMAXPROCS is. (Sharded
// models, which train identically at any worker count, take GOMAXPROCS.)
func Load(r io.Reader) (*Model, error) {
	net, err := network.Load(r, 0)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	return &Model{net: net}, nil
}

// LoadFile restores a model from a checkpoint file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("slide: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// ActiveFraction returns MeanActive/outputDim for a stats value — the
// effective sparsity.
func (s TrainStats) ActiveFraction(outputDim int) float64 {
	if outputDim == 0 {
		return 0
	}
	return s.MeanActive / float64(outputDim)
}
