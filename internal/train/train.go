// Package train is the training-session engine under the public
// slide.Trainer: a deterministic batch loop over a dataset.Source with typed
// lifecycle hooks, per-step learning-rate schedules, a checkpoint-every-N
// schedule with atomic file writes, periodic snapshot callbacks, early
// stopping, and context cancellation.
//
// It operates on the Stepper interface (implemented by network.Network), so
// the public API, the cmds, and the experiment harness all drive the same
// loop.
//
// Determinism contract: pass p of a session starts with src.Reset(seed)
// where seed is Step()+1 at pass start — exactly the legacy
// Model.TrainEpoch seeding rule — so a single-worker session is bit-identical
// to the historical epoch loop, and a resumed session (Resume: true, Sized
// source) fast-forwards to its mid-epoch position and reproduces the
// uninterrupted run bit-for-bit.
package train

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Stepper is the trainable surface the session drives.
type Stepper interface {
	// TrainBatch applies one optimizer step over the batch.
	TrainBatch(b sparse.Batch) network.BatchStats
	// Step returns the number of optimizer steps applied so far.
	Step() int64
}

// LRSetter is implemented by steppers whose learning rate can be changed
// between batches (network.Network). A Config with a Schedule requires it.
type LRSetter interface {
	SetLR(lr float64)
}

// Saver is implemented by steppers that can serialize a checkpoint
// (network.Network). A Config with checkpointing requires it.
type Saver interface {
	Save(w io.Writer) error
}

// Schedule maps a 1-based optimizer step to its learning rate. The schedule
// must be a pure function of the step so a resumed session re-derives the
// same trajectory.
type Schedule func(step int64) float64

// BatchInfo is delivered to OnBatch after every optimizer step.
type BatchInfo struct {
	// Step is the optimizer step count after this batch.
	Step int64
	// Epoch is the 0-based pass index within this session; Batch the 0-based
	// batch index within the pass.
	Epoch, Batch int
	// Stats are the batch's training statistics.
	Stats network.BatchStats
	// LR is the learning rate this step used (0 when no schedule is set and
	// the stepper's configured rate applied).
	LR float64
	// TrainTime is the wall-clock spent inside TrainBatch only — data
	// loading, hooks and evaluation are excluded, so harness timings stay
	// comparable to hand-rolled loops.
	TrainTime time.Duration
}

// EpochInfo is delivered to OnEpoch after every completed pass.
type EpochInfo struct {
	// Epoch is the 0-based pass index within this session.
	Epoch int
	// Batches is the number of batches the pass ran.
	Batches int
	// Stats aggregates the pass's batch statistics.
	Stats network.BatchStats
	// TrainTime is the summed TrainBatch wall-clock of the pass.
	TrainTime time.Duration
}

// CheckpointInfo is delivered to OnCheckpoint after a checkpoint file is
// atomically in place.
type CheckpointInfo struct {
	Step int64
	Path string
}

// Hooks are the session's typed lifecycle callbacks. All hooks run on the
// session goroutine, between optimizer steps, so they may read the model
// (evaluate, snapshot) without synchronization. Any hook may be nil.
//
// Per-step ordering: schedule LR → TrainBatch → OnBatch → checkpoint +
// OnCheckpoint → OnSnapshot. OnEpoch fires after the pass's last OnBatch
// (and its checkpoint/snapshot work); early stopping is evaluated after
// OnEpoch.
type Hooks struct {
	OnBatch      func(BatchInfo)
	OnEpoch      func(EpochInfo)
	OnCheckpoint func(CheckpointInfo)
	// OnSnapshot fires every SnapshotEvery steps; the caller (slide.Trainer)
	// turns it into a Predictor snapshot and publishes it.
	OnSnapshot func(step int64)
	// OnHealth fires when the health monitor flags a red batch, immediately
	// before the session aborts with *HealthError. Requires Config.Health.
	OnHealth func(health.Event)
}

// Config parameterizes one session.
type Config struct {
	// Epochs bounds the number of passes (0 = unbounded; the session then
	// runs until MaxSteps, early stopping, or cancellation).
	Epochs int
	// MaxSteps bounds the stepper's *total* optimizer step count (0 = none):
	// a resumed session with MaxSteps N+M that loaded a step-N checkpoint
	// runs M more steps.
	MaxSteps int64
	// LR is the per-step learning-rate schedule (nil = keep the stepper's
	// configured rate). Requires the stepper to implement LRSetter.
	LR Schedule
	// CheckpointPath + CheckpointEvery > 0 write an atomic checkpoint every
	// CheckpointEvery steps (and once more at session end if steps ran since
	// the last one). Requires the stepper to implement Saver.
	CheckpointPath  string
	CheckpointEvery int64
	// CheckpointRetain keeps that many last-good checkpoints: the newest at
	// CheckpointPath and older generations at path.1, path.2, … (see
	// RingPaths). 0 or 1 keeps only the primary. Opening the schedule also
	// sweeps crash debris — orphaned .tmp-* files and ring slots beyond the
	// retention bound.
	CheckpointRetain int
	// SnapshotEvery > 0 fires Hooks.OnSnapshot every that many steps.
	SnapshotEvery int64
	// EarlyStopPatience > 0 stops the session when the pass mean loss has
	// not improved by at least EarlyStopMinDelta for that many consecutive
	// passes.
	EarlyStopPatience int
	EarlyStopMinDelta float64
	// Resume fast-forwards a stepper with Step() > 0 to its deterministic
	// mid-epoch position before training (Sized sources only): the session
	// re-derives the interrupted pass's seed and skips the batches the
	// checkpointed run already consumed.
	Resume bool
	// Health enables the numerical-health monitor: per-batch NaN/Inf guard
	// counts (steppers implementing GuardSetter are switched on for the
	// session) plus EWMA loss-spike and divergence detection. A red batch
	// aborts the session with *HealthError before the step's checkpoint or
	// snapshot work, so poisoned weights are never persisted or published.
	Health *health.Config

	Hooks Hooks
}

// StopReason reports why a session ended.
type StopReason int

const (
	// StopCompleted: the configured number of passes finished.
	StopCompleted StopReason = iota
	// StopMaxSteps: the total-step bound was reached.
	StopMaxSteps
	// StopCanceled: the context was canceled — a requested, graceful stop,
	// not an error.
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

// Report summarizes one session.
type Report struct {
	// Steps is the number of optimizer steps this session ran (not the
	// stepper's total); Epochs the number of *completed* passes.
	Steps  int64
	Epochs int
	// Stats aggregates every batch of the session.
	Stats network.BatchStats
	// TrainTime is the summed TrainBatch wall-clock.
	TrainTime time.Duration
	// Reason is why the session ended.
	Reason StopReason
	// LastCheckpoint is the step of the most recent checkpoint written by
	// this session (0 = none).
	LastCheckpoint int64
}

// Validate reports configuration errors against the stepper's capabilities.
func (c *Config) Validate(s Stepper) error {
	if c.Epochs < 0 {
		return fmt.Errorf("train: Epochs %d must be >= 0", c.Epochs)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("train: MaxSteps %d must be >= 0", c.MaxSteps)
	}
	if c.LR != nil {
		if _, ok := s.(LRSetter); !ok {
			return fmt.Errorf("train: LR schedule set but stepper cannot SetLR")
		}
	}
	if (c.CheckpointEvery > 0) != (c.CheckpointPath != "") {
		return fmt.Errorf("train: CheckpointPath and CheckpointEvery must be set together")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("train: CheckpointEvery %d must be >= 0", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 {
		if _, ok := s.(Saver); !ok {
			return fmt.Errorf("train: checkpointing set but stepper cannot Save")
		}
	}
	if c.CheckpointRetain < 0 {
		return fmt.Errorf("train: CheckpointRetain %d must be >= 0", c.CheckpointRetain)
	}
	if c.CheckpointRetain > 1 && c.CheckpointEvery == 0 {
		return fmt.Errorf("train: CheckpointRetain set without a checkpoint schedule")
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("train: SnapshotEvery %d must be >= 0", c.SnapshotEvery)
	}
	if c.SnapshotEvery > 0 && c.Hooks.OnSnapshot == nil {
		return fmt.Errorf("train: SnapshotEvery set without an OnSnapshot hook")
	}
	if c.EarlyStopPatience < 0 || c.EarlyStopMinDelta < 0 {
		return fmt.Errorf("train: early-stop parameters must be >= 0")
	}
	return nil
}

// atomicCheckpoint writes the stepper's checkpoint to path via a temp file
// and rename, so a crash mid-write never leaves a truncated checkpoint where
// a loadable one is expected. With retain > 1 the existing ring rotates down
// one slot just before the rename — only once the new checkpoint is fully
// written and synced, so a failed save leaves the ring untouched.
//
// The write stream and the pre-rename window are fault-injection points
// (checkpoint.write, checkpoint.rename). An injected fault stands in for a
// crash at that moment, so cleanup is deliberately skipped for it: the torn
// or orphaned temp file stays on disk exactly as a real kill would leave it,
// and the sweep/fallback machinery has real debris to recover from.
func atomicCheckpoint(sv Saver, path string, retain int) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		if !errors.Is(err, faultinject.ErrInjected) {
			os.Remove(tmp)
		}
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	if err := sv.Save(faultinject.Writer(faultinject.PointCheckpointWrite, f)); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; match the 0644 a plain SaveFile produces so the
	// rename doesn't silently make the checkpoint owner-only.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	if err := faultinject.Hit(faultinject.PointCheckpointRename); err != nil {
		// Simulated crash between write and rename: the temp file is orphaned.
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	if retain > 1 {
		if err := rotateRing(path, retain); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("train: checkpoint: %w", err)
	}
	return nil
}

// session is the loop state of one Run.
type session struct {
	cfg  Config
	s    Stepper
	src  dataset.Source
	rep  Report
	last int64 // step of the last checkpoint (0 = none yet this session)
	mon  *health.Monitor
}

// Run executes one training session. Cancellation via ctx is a graceful stop
// (Report.Reason == StopCanceled, nil error), checked between batches; a
// source or checkpoint failure aborts with the error and a partial report.
func Run(ctx context.Context, s Stepper, src dataset.Source, cfg Config) (Report, error) {
	if err := cfg.Validate(s); err != nil {
		return Report{}, err
	}
	// Sources holding resources (the streaming file reader) are released on
	// every exit path — cancellation and step bounds stop mid-pass, before
	// the source's own end-of-pass close would run. Closed sources accept a
	// later Reset, so the same source can drive another session.
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	se := &session{cfg: cfg, s: s, src: src}

	if cfg.Health != nil {
		if g, ok := s.(GuardSetter); ok {
			g.SetGuards(true)
			defer g.SetGuards(false)
		}
		se.mon = health.NewMonitor(*cfg.Health)
	}

	// Opening the checkpoint schedule sweeps debris from crashed sessions:
	// orphaned temp files and ring slots past the retention bound.
	if cfg.CheckpointEvery > 0 {
		if _, err := SweepStale(cfg.CheckpointPath, cfg.CheckpointRetain); err != nil {
			return Report{}, err
		}
	}

	// Resume fast-forward: place the source where the interrupted session's
	// pass left off, deterministically from the step counter alone.
	skip := 0
	if cfg.Resume && s.Step() > 0 {
		sized, ok := src.(dataset.Sized)
		if !ok {
			return Report{}, fmt.Errorf("train: Resume requires a Sized source (known batches per epoch)")
		}
		bpe := sized.BatchesPerEpoch()
		if bpe <= 0 {
			return Report{}, fmt.Errorf("train: Resume with empty source")
		}
		skip = int(s.Step() % int64(bpe))
	}

	var bestLoss float64
	var sinceBest int
	haveBest := false

	for pass := 0; cfg.Epochs == 0 || pass < cfg.Epochs; pass++ {
		if err := ctx.Err(); err != nil {
			se.rep.Reason = StopCanceled
			return se.finish()
		}
		if cfg.MaxSteps > 0 && s.Step() >= cfg.MaxSteps {
			se.rep.Reason = StopMaxSteps
			return se.finish()
		}

		passStart := s.Step()
		seedStep := passStart
		if pass == 0 && skip > 0 {
			// The interrupted pass began skip batches before the checkpoint.
			seedStep = passStart - int64(skip)
		}
		if err := src.Reset(uint64(seedStep) + 1); err != nil {
			return se.rep, err
		}
		if pass == 0 && skip > 0 {
			for i := 0; i < skip; i++ {
				if _, err := src.Next(); err != nil {
					return se.rep, fmt.Errorf("train: resume fast-forward: %w", err)
				}
			}
		}

		var ep EpochInfo
		ep.Epoch = pass
		batchIdx := 0
		if pass == 0 {
			batchIdx = skip
		}
		stopped := StopReason(-1)
		for {
			if err := ctx.Err(); err != nil {
				stopped = StopCanceled
				break
			}
			if err := faultinject.Hit(faultinject.PointSourceRead); err != nil {
				se.mergeEpoch(ep)
				return se.rep, fmt.Errorf("train: reading batch: %w", err)
			}
			b, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				se.mergeEpoch(ep)
				return se.rep, err
			}
			if err := se.step(b, pass, batchIdx, &ep); err != nil {
				se.mergeEpoch(ep)
				return se.rep, err
			}
			batchIdx++
			if cfg.MaxSteps > 0 && s.Step() >= cfg.MaxSteps {
				stopped = StopMaxSteps
				break
			}
		}

		if stopped == StopCanceled || stopped == StopMaxSteps {
			se.mergeEpoch(ep)
			se.rep.Reason = stopped
			return se.finish()
		}

		// Pass completed.
		se.mergeEpoch(ep)
		se.rep.Epochs++
		if cfg.Hooks.OnEpoch != nil {
			cfg.Hooks.OnEpoch(ep)
		}
		if cfg.EarlyStopPatience > 0 && ep.Stats.Samples > 0 {
			meanLoss := ep.Stats.Loss / float64(ep.Stats.Samples)
			if !haveBest || meanLoss < bestLoss-cfg.EarlyStopMinDelta {
				bestLoss, haveBest, sinceBest = meanLoss, true, 0
			} else {
				sinceBest++
				if sinceBest >= cfg.EarlyStopPatience {
					se.rep.Reason = StopEarly
					return se.finish()
				}
			}
		}
	}
	se.rep.Reason = StopCompleted
	return se.finish()
}

// step runs one batch: schedule LR, train, fire hooks, checkpoint, snapshot.
func (se *session) step(b sparse.Batch, pass, batchIdx int, ep *EpochInfo) error {
	cfg := &se.cfg
	step := se.s.Step() + 1
	var lr float64
	if cfg.LR != nil {
		lr = cfg.LR(step)
		se.s.(LRSetter).SetLR(lr)
	}
	start := time.Now()
	st := se.s.TrainBatch(b)
	dt := time.Since(start)

	ep.Batches++
	ep.TrainTime += dt
	ep.Stats.Samples += st.Samples
	ep.Stats.Loss += st.Loss
	ep.Stats.ActiveSum += st.ActiveSum
	ep.Stats.Rebuilt = ep.Stats.Rebuilt || st.Rebuilt
	ep.Stats.NonFinite += st.NonFinite

	if cfg.Hooks.OnBatch != nil {
		cfg.Hooks.OnBatch(BatchInfo{
			Step: step, Epoch: pass, Batch: batchIdx,
			Stats: st, LR: lr, TrainTime: dt,
		})
	}
	// Health verdict comes before the step's checkpoint and snapshot work: a
	// red batch must never persist or publish the weights it poisoned.
	if se.mon != nil {
		var meanLoss float64
		if st.Samples > 0 {
			meanLoss = st.Loss / float64(st.Samples)
		}
		if ev, red := se.mon.Observe(step, meanLoss, st.NonFinite); red {
			if cfg.Hooks.OnHealth != nil {
				cfg.Hooks.OnHealth(ev)
			}
			return &HealthError{Event: ev}
		}
	}
	if cfg.CheckpointEvery > 0 && step%cfg.CheckpointEvery == 0 {
		if err := se.checkpoint(step); err != nil {
			return err
		}
	}
	if cfg.SnapshotEvery > 0 && step%cfg.SnapshotEvery == 0 {
		cfg.Hooks.OnSnapshot(step)
	}
	return nil
}

// checkpoint writes one atomic checkpoint (rotating the retention ring) and
// fires the hook.
func (se *session) checkpoint(step int64) error {
	if err := atomicCheckpoint(se.s.(Saver), se.cfg.CheckpointPath, se.cfg.CheckpointRetain); err != nil {
		return err
	}
	se.last = step
	se.rep.LastCheckpoint = step
	if se.cfg.Hooks.OnCheckpoint != nil {
		se.cfg.Hooks.OnCheckpoint(CheckpointInfo{Step: step, Path: se.cfg.CheckpointPath})
	}
	return nil
}

// mergeEpoch folds a (possibly partial) pass into the session report.
func (se *session) mergeEpoch(ep EpochInfo) {
	se.rep.Steps += int64(ep.Batches)
	se.rep.TrainTime += ep.TrainTime
	se.rep.Stats.Samples += ep.Stats.Samples
	se.rep.Stats.Loss += ep.Stats.Loss
	se.rep.Stats.ActiveSum += ep.Stats.ActiveSum
	se.rep.Stats.Rebuilt = se.rep.Stats.Rebuilt || ep.Stats.Rebuilt
	se.rep.Stats.NonFinite += ep.Stats.NonFinite
}

// finish writes the final checkpoint (if the schedule is on and steps ran
// since the last one) and returns the report. A cancelled session therefore
// always leaves a loadable checkpoint at the configured path.
func (se *session) finish() (Report, error) {
	if se.cfg.CheckpointEvery > 0 && se.rep.Steps > 0 && se.s.Step() != se.last {
		if err := se.checkpoint(se.s.Step()); err != nil {
			return se.rep, err
		}
	}
	return se.rep, nil
}
