package slide

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/internal/train"
)

// Trainer is a composable training session over a Model and a DataSource:
// construct with NewTrainer, drive with Run, observe and steer through the
// typed lifecycle hooks (OnBatch, OnEpoch, OnCheckpoint, snapshots). A
// Trainer owns no model state — it is a reusable description of how to run
// a session.
//
//	src, _ := slide.NewFileSource("train.txt", 256, 4096)
//	t, _ := slide.NewTrainer(m, src,
//		slide.WithEpochs(3),
//		slide.WithLRSchedule(slide.WarmupLR(1e-3, 500)),
//		slide.WithCheckpoints("model.slide", 1000),
//		slide.WithSnapshots(200, serving.Publisher(mgr)))
//	report, err := t.Run(ctx)
//
// Run executes on the calling goroutine; cancel the context to stop
// gracefully between batches (a stop, not an error). Hooks run on the
// session goroutine between optimizer steps, so they may call Evaluate,
// Snapshot, Save, etc. without synchronization.
type Trainer struct {
	m   *Model
	src DataSource
	o   trainerOptions
}

// trainerOptions collects option values.
type trainerOptions struct {
	epochs        int
	maxSteps      int64
	lr            LRSchedule
	ckptPath      string
	ckptEvery     int
	ckptRetain    int
	snapEvery     int
	snapPublish   func(*Predictor)
	deltaEvery    int
	deltaPublish  func(*Predictor, *Delta)
	earlyPatience int
	earlyMinDelta float64
	resume        bool
	onBatch       func(BatchEvent)
	onEpoch       func(EpochEvent)
	onCheckpoint  func(CheckpointEvent)
	health        *HealthConfig
	onHealth      func(HealthEvent)
	rollbackMax   int
	rollbackLR    float64
	onRollback    func(RollbackEvent)
}

// healthOn reports whether any option asked for the health monitor.
func (o *trainerOptions) healthOn() bool {
	return o.health != nil || o.onHealth != nil || o.rollbackMax > 0
}

// TrainerOption configures NewTrainer.
type TrainerOption func(*trainerOptions)

// WithEpochs bounds the session to n passes over the source (default 1;
// 0 = unbounded — stop via WithMaxSteps, early stopping, or cancellation).
func WithEpochs(n int) TrainerOption {
	return func(o *trainerOptions) { o.epochs = n }
}

// WithMaxSteps bounds the model's total optimizer step count: a session on a
// model resumed at step N with WithMaxSteps(N+M) runs M more steps.
func WithMaxSteps(n int64) TrainerOption {
	return func(o *trainerOptions) { o.maxSteps = n }
}

// LRSchedule maps a 1-based optimizer step to its learning rate. Schedules
// must be pure functions of the step, so a resumed session re-derives the
// same trajectory from the checkpointed step counter.
type LRSchedule func(step int64) float64

// ConstantLR holds the learning rate fixed.
func ConstantLR(lr float64) LRSchedule {
	return func(int64) float64 { return lr }
}

// StepDecayLR multiplies base by factor after every interval steps
// (factor < 1 decays): steps 1..every train at base, the next interval at
// base*factor, and so on. A non-positive interval never decays.
func StepDecayLR(base, factor float64, every int64) LRSchedule {
	return func(step int64) float64 {
		if every <= 0 || step <= every {
			return base
		}
		return base * math.Pow(factor, float64((step-1)/every))
	}
}

// WarmupLR ramps linearly from base/warmup (step 1) to base (step warmup)
// over the first warmup steps, then stays constant — the large-batch warmup
// recipe.
func WarmupLR(base float64, warmup int64) LRSchedule {
	return func(step int64) float64 {
		if step < warmup {
			return base * float64(step) / float64(warmup)
		}
		return base
	}
}

// WithLRSchedule drives the learning rate from the schedule before every
// optimizer step (default: the model's configured rate throughout).
func WithLRSchedule(s LRSchedule) TrainerOption {
	return func(o *trainerOptions) { o.lr = s }
}

// WithCheckpoints writes a checkpoint to path every everySteps optimizer
// steps, plus a final one when the session ends (cancellation included), so
// the path always holds a loadable, current checkpoint. Writes are atomic
// (temp file + rename): a crash mid-write never corrupts the previous
// checkpoint. Resume with LoadFile + a Trainer on the loaded model.
func WithCheckpoints(path string, everySteps int) TrainerOption {
	return func(o *trainerOptions) { o.ckptPath, o.ckptEvery = path, everySteps }
}

// WithCheckpointRetain keeps the n most recent checkpoints instead of only
// the newest: the current one at the WithCheckpoints path and older
// generations at path.1, path.2, …, rotated on every write. Paired with
// LoadLastGood, a corrupted newest checkpoint (torn by a crash faster than
// fsync, or damaged at rest) falls back to the newest older one that still
// verifies. Opening the schedule also sweeps stale .tmp-* files and ring
// slots beyond n left by crashed sessions.
func WithCheckpointRetain(n int) TrainerOption {
	return func(o *trainerOptions) { o.ckptRetain = n }
}

// WithSnapshots freezes a Predictor snapshot every everySteps optimizer
// steps and hands it to publish — wire it to a serving pipeline with
// serving.Publisher(mgr) and the model trains and serves fresh versions
// from one object.
func WithSnapshots(everySteps int, publish func(*Predictor)) TrainerOption {
	return func(o *trainerOptions) { o.snapEvery, o.snapPublish = everySteps, publish }
}

// WithDeltas is WithSnapshots for replicated serving: every everySteps
// optimizer steps the model is snapshotted copy-on-write (delta tracking
// is enabled automatically) and publish receives the Predictor plus the
// sparse Delta since the previous snapshot (nil on the first snapshot —
// publish a full base then, e.g. via the replication hub). Mutually
// exclusive with WithSnapshots; use one or the other.
func WithDeltas(everySteps int, publish func(*Predictor, *Delta)) TrainerOption {
	return func(o *trainerOptions) { o.deltaEvery, o.deltaPublish = everySteps, publish }
}

// WithEarlyStopping ends the session when the per-pass mean loss has not
// improved by at least minDelta for patience consecutive passes.
func WithEarlyStopping(patience int, minDelta float64) TrainerOption {
	return func(o *trainerOptions) { o.earlyPatience, o.earlyMinDelta = patience, minDelta }
}

// WithResume fast-forwards a model whose step counter says it stopped
// mid-epoch to that exact position (seeded shuffle and all) before training,
// so a checkpoint-interrupted session continues bit-identically to an
// uninterrupted run. Requires a source with a known pass length (all
// built-in sources); exact resume also requires a single worker or
// WithShards, because several HOGWILD workers race on shared gradient rows by
// design. The original worker count comes back with the checkpoint (see
// Load).
func WithResume() TrainerOption {
	return func(o *trainerOptions) { o.resume = true }
}

// BatchEvent reports one optimizer step.
type BatchEvent struct {
	// Step is the model's optimizer step count after this batch.
	Step int64
	// Epoch is the 0-based pass index within this session; Batch the 0-based
	// batch index within the pass.
	Epoch, Batch int
	// Stats are this batch's training statistics.
	Stats TrainStats
	// LR is the learning rate the step used (0 when no schedule is set).
	LR float64
}

// EpochEvent reports one completed pass.
type EpochEvent struct {
	// Epoch is the 0-based pass index within this session.
	Epoch int
	// Batches is the number of optimizer steps the pass ran.
	Batches int
	// Stats aggregates the pass.
	Stats TrainStats
	// TrainTime is the pass's wall-clock spent inside training steps (data
	// loading, hooks and evaluation excluded).
	TrainTime time.Duration
}

// CheckpointEvent reports one checkpoint atomically in place.
type CheckpointEvent struct {
	Step int64
	Path string
}

// WithOnBatch registers a hook called after every optimizer step.
func WithOnBatch(fn func(BatchEvent)) TrainerOption {
	return func(o *trainerOptions) { o.onBatch = fn }
}

// WithOnEpoch registers a hook called after every completed pass.
func WithOnEpoch(fn func(EpochEvent)) TrainerOption {
	return func(o *trainerOptions) { o.onEpoch = fn }
}

// WithOnCheckpoint registers a hook called after every checkpoint write.
func WithOnCheckpoint(fn func(CheckpointEvent)) TrainerOption {
	return func(o *trainerOptions) { o.onCheckpoint = fn }
}

// StopReason reports why a session ended.
type StopReason int

const (
	// StopCompleted: the configured number of epochs finished.
	StopCompleted StopReason = iota
	// StopMaxSteps: the WithMaxSteps bound was reached.
	StopMaxSteps
	// StopCanceled: the context was canceled — a graceful stop, not an error.
	StopCanceled
	// StopEarly: early stopping triggered.
	StopEarly
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopCompleted:
		return "completed"
	case StopMaxSteps:
		return "max-steps"
	case StopCanceled:
		return "canceled"
	case StopEarly:
		return "early-stop"
	default:
		return "unknown"
	}
}

// stopReason maps the engine's reason onto the public enum.
func stopReason(r train.StopReason) StopReason {
	switch r {
	case train.StopMaxSteps:
		return StopMaxSteps
	case train.StopCanceled:
		return StopCanceled
	case train.StopEarly:
		return StopEarly
	default:
		return StopCompleted
	}
}

// Report summarizes one session.
type Report struct {
	// Steps is the number of optimizer steps this session ran; Epochs the
	// number of completed passes.
	Steps  int64
	Epochs int
	// Stats aggregates every batch of the session.
	Stats TrainStats
	// TrainTime is the wall-clock spent inside training steps.
	TrainTime time.Duration
	// Reason is why the session ended.
	Reason StopReason
	// LastCheckpoint is the optimizer step of the session's most recent
	// checkpoint (0 = none written).
	LastCheckpoint int64
}

// NewTrainer builds a training session over the model and source. The source
// dimensions must fit the model; schedules and hooks are validated here so
// Run cannot fail on configuration.
func NewTrainer(m *Model, src DataSource, opts ...TrainerOption) (*Trainer, error) {
	if m == nil {
		return nil, fmt.Errorf("slide: NewTrainer with nil model")
	}
	if src == nil {
		return nil, fmt.Errorf("slide: NewTrainer with nil source")
	}
	o := trainerOptions{epochs: 1}
	for _, opt := range opts {
		opt(&o)
	}
	cfg := m.net.Config()
	if src.Features() > cfg.InputDim {
		return nil, fmt.Errorf("slide: source has %d features, model input is %d",
			src.Features(), cfg.InputDim)
	}
	if src.NumLabels() > cfg.OutputDim {
		return nil, fmt.Errorf("slide: source has %d labels, model output is %d",
			src.NumLabels(), cfg.OutputDim)
	}
	if o.epochs < 0 {
		return nil, fmt.Errorf("slide: WithEpochs(%d) must be >= 0", o.epochs)
	}
	if o.maxSteps < 0 {
		return nil, fmt.Errorf("slide: WithMaxSteps(%d) must be >= 0", o.maxSteps)
	}
	if (o.ckptEvery > 0) != (o.ckptPath != "") {
		return nil, fmt.Errorf("slide: checkpoints need both a path and a positive interval")
	}
	if o.ckptEvery < 0 {
		return nil, fmt.Errorf("slide: checkpoint interval %d must be >= 0", o.ckptEvery)
	}
	if o.ckptRetain < 0 {
		return nil, fmt.Errorf("slide: WithCheckpointRetain(%d) must be >= 0", o.ckptRetain)
	}
	if o.ckptRetain > 1 && o.ckptEvery == 0 {
		return nil, fmt.Errorf("slide: WithCheckpointRetain needs WithCheckpoints")
	}
	if o.snapEvery < 0 {
		return nil, fmt.Errorf("slide: snapshot interval %d must be >= 0", o.snapEvery)
	}
	if o.snapEvery > 0 && o.snapPublish == nil {
		return nil, fmt.Errorf("slide: WithSnapshots needs a publish function")
	}
	if o.deltaEvery < 0 {
		return nil, fmt.Errorf("slide: delta interval %d must be >= 0", o.deltaEvery)
	}
	if o.deltaEvery > 0 && o.deltaPublish == nil {
		return nil, fmt.Errorf("slide: WithDeltas needs a publish function")
	}
	if o.deltaEvery > 0 && o.snapEvery > 0 {
		return nil, fmt.Errorf("slide: WithDeltas and WithSnapshots are mutually exclusive")
	}
	if o.earlyPatience < 0 || o.earlyMinDelta < 0 {
		return nil, fmt.Errorf("slide: early-stopping parameters must be >= 0")
	}
	if o.rollbackMax < 0 {
		return nil, fmt.Errorf("slide: WithAutoRollback retries %d must be >= 0", o.rollbackMax)
	}
	if o.rollbackMax > 0 {
		if o.rollbackLR <= 0 || o.rollbackLR > 1 {
			return nil, fmt.Errorf("slide: WithAutoRollback lrFactor %g must be in (0, 1]", o.rollbackLR)
		}
		if o.ckptEvery == 0 {
			return nil, fmt.Errorf("slide: WithAutoRollback needs WithCheckpoints (rollback reloads the ring)")
		}
	}
	if h := o.health; h != nil {
		if h.Warmup < 0 || h.Alpha < 0 || h.Alpha > 1 || h.SpikeFactor < 0 || h.DivergenceLoss < 0 {
			return nil, fmt.Errorf("slide: invalid health config %+v", *h)
		}
	}
	return &Trainer{m: m, src: src, o: o}, nil
}

// Run executes the session on the calling goroutine until its bounds are
// reached, early stopping triggers, or ctx is canceled (a graceful stop —
// Report.Reason says which). The model must not be trained, snapshotted, or
// saved from other goroutines while Run executes; hooks run on the session
// goroutine and may do all of those.
//
// With WithAutoRollback, a red health verdict restores the newest valid
// checkpoint into the model and replays; the returned Report then covers
// the final attempt only (the WithOnRollback and per-batch hooks observed
// the aborted ones).
func (t *Trainer) Run(ctx context.Context) (Report, error) {
	o := &t.o
	lrScale := 1.0
	attempt := 0
	for {
		rep, err := t.runOnce(ctx, attempt > 0, lrScale)
		if err == nil {
			return rep, nil
		}
		var he *train.HealthError
		if !errors.As(err, &he) || o.rollbackMax == 0 {
			return rep, wrapRunError(err)
		}
		if attempt >= o.rollbackMax {
			return rep, fmt.Errorf("slide: %w",
				&RollbackExhaustedError{Attempts: attempt, Event: healthEvent(he.Event)})
		}
		attempt++
		loaded, used, lerr := LoadLastGood(o.ckptPath, o.ckptRetain)
		if lerr != nil {
			return rep, fmt.Errorf("slide: rollback attempt %d: %w", attempt, lerr)
		}
		// Adopt the restored state in place so the caller's *Model (and any
		// publish hooks capturing it) keeps working across the rollback.
		t.m.net = loaded.net
		lrScale *= o.rollbackLR
		if o.onRollback != nil {
			o.onRollback(RollbackEvent{
				Attempt: attempt, Step: loaded.Steps(), Checkpoint: used,
				Cause: healthEvent(he.Event), LRScale: lrScale,
			})
		}
	}
}

// wrapRunError translates engine errors onto the public surface.
func wrapRunError(err error) error {
	var he *train.HealthError
	if errors.As(err, &he) {
		return fmt.Errorf("slide: %w", &HealthError{Event: healthEvent(he.Event)})
	}
	return fmt.Errorf("slide: %w", err)
}

// runOnce executes one engine session. retry marks a post-rollback replay
// (forces the deterministic resume fast-forward); lrScale multiplies the
// learning rate — schedule or model-configured — when != 1.
func (t *Trainer) runOnce(ctx context.Context, retry bool, lrScale float64) (Report, error) {
	o := &t.o
	cfg := train.Config{
		Epochs:            o.epochs,
		MaxSteps:          o.maxSteps,
		CheckpointPath:    o.ckptPath,
		CheckpointEvery:   int64(o.ckptEvery),
		CheckpointRetain:  o.ckptRetain,
		SnapshotEvery:     int64(o.snapEvery),
		EarlyStopPatience: o.earlyPatience,
		EarlyStopMinDelta: o.earlyMinDelta,
		Resume:            o.resume || retry,
	}
	if o.lr != nil {
		cfg.LR = train.Schedule(o.lr)
	}
	if lrScale != 1 {
		// The backoff compounds on whatever drove the rate before: the
		// schedule, or the model's configured base rate.
		if o.lr != nil {
			base := o.lr
			cfg.LR = func(step int64) float64 { return base(step) * lrScale }
		} else {
			base := t.m.net.Config().LR
			cfg.LR = func(int64) float64 { return base * lrScale }
		}
	}
	if o.healthOn() {
		var hc HealthConfig
		if o.health != nil {
			hc = *o.health
		}
		cfg.Health = &health.Config{
			Warmup: hc.Warmup, Alpha: hc.Alpha,
			SpikeFactor: hc.SpikeFactor, DivergenceLoss: hc.DivergenceLoss,
		}
		if o.onHealth != nil {
			fn := o.onHealth
			cfg.Hooks.OnHealth = func(ev health.Event) { fn(healthEvent(ev)) }
		}
	}
	if o.onBatch != nil {
		fn := o.onBatch
		cfg.Hooks.OnBatch = func(bi train.BatchInfo) {
			fn(BatchEvent{
				Step: bi.Step, Epoch: bi.Epoch, Batch: bi.Batch,
				Stats: batchStats(bi.Stats), LR: bi.LR,
			})
		}
	}
	if o.onEpoch != nil {
		fn := o.onEpoch
		cfg.Hooks.OnEpoch = func(ei train.EpochInfo) {
			fn(EpochEvent{
				Epoch: ei.Epoch, Batches: ei.Batches,
				Stats: batchStats(ei.Stats), TrainTime: ei.TrainTime,
			})
		}
	}
	if o.onCheckpoint != nil {
		fn := o.onCheckpoint
		cfg.Hooks.OnCheckpoint = func(ci train.CheckpointInfo) {
			fn(CheckpointEvent{Step: ci.Step, Path: ci.Path})
		}
	}
	if o.snapEvery > 0 {
		publish := o.snapPublish
		cfg.Hooks.OnSnapshot = func(int64) { publish(t.m.Snapshot()) }
	}
	if o.deltaEvery > 0 {
		publish := o.deltaPublish
		t.m.EnableDeltas()
		cfg.SnapshotEvery = int64(o.deltaEvery)
		cfg.Hooks.OnSnapshot = func(int64) { publish(t.m.SnapshotDelta()) }
	}

	rep, err := train.Run(ctx, t.m.net, t.internalSource(), cfg)
	out := Report{
		Steps: rep.Steps, Epochs: rep.Epochs,
		Stats:          batchStats(rep.Stats),
		TrainTime:      rep.TrainTime,
		Reason:         stopReason(rep.Reason),
		LastCheckpoint: rep.LastCheckpoint,
	}
	return out, err // raw engine error; Run wraps or rolls back
}

// internalSource unwraps built-in sources (their batches were validated at
// parse/generation time) and wraps user implementations in a per-batch
// range-validating adapter.
func (t *Trainer) internalSource() dataset.Source {
	if tr, ok := t.src.(interface{ trusted() dataset.Source }); ok {
		return tr.trusted()
	}
	cfg := t.m.net.Config()
	u := &userSource{s: t.src, features: cfg.InputDim, labels: cfg.OutputDim}
	if _, ok := t.src.(interface{ BatchesPerEpoch() int }); ok {
		return &sizedUserSource{u}
	}
	return u
}

// userSource adapts a caller-implemented DataSource, range-checking every
// batch against the model dimensions — the API-boundary validation that
// turns would-be kernel panics into typed errors.
type userSource struct {
	s                DataSource
	features, labels int
}

func (u *userSource) Name() string            { return u.s.Name() }
func (u *userSource) Features() int           { return u.s.Features() }
func (u *userSource) Labels() int             { return u.s.NumLabels() }
func (u *userSource) Reset(seed uint64) error { return u.s.Reset(seed) }

// Close forwards the engine's end-of-session release to sources that hold
// resources.
func (u *userSource) Close() error {
	if c, ok := u.s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (u *userSource) Next() (sparse.Batch, error) {
	b, err := u.s.Next()
	if err != nil {
		return nil, err
	}
	if b.b == nil || b.b.Len() == 0 {
		return nil, fmt.Errorf("slide: DataSource %s returned an empty batch (return io.EOF to end the pass)", u.s.Name())
	}
	for i := 0; i < b.b.Len(); i++ {
		if err := b.b.Sample(i).Validate(u.features); err != nil {
			return nil, &BadSampleError{Sample: i, Err: err}
		}
		for _, y := range b.b.Labels(i) {
			if y < 0 || int(y) >= u.labels {
				return nil, &BadSampleError{Sample: i,
					Err: fmt.Errorf("label %d out of range [0,%d)", y, u.labels)}
			}
		}
	}
	return b.b, nil
}

// sizedUserSource forwards a user source's known pass length.
type sizedUserSource struct {
	*userSource
}

// BatchesPerEpoch implements dataset.Sized.
func (u *sizedUserSource) BatchesPerEpoch() int {
	return u.s.(interface{ BatchesPerEpoch() int }).BatchesPerEpoch()
}

// compile-time checks: the adapters satisfy the engine contracts.
var (
	_ dataset.Source = (*userSource)(nil)
	_ dataset.Sized  = (*sizedUserSource)(nil)
)
