package slide

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// The session loop: one attempt of Trainer.Run, a deterministic batch loop
// over the source. Pass p starts with src.Reset(seed) where seed is
// Steps()+1 at pass start — the historical epoch loop's seeding rule — so a
// single-worker session is bit-identical to that loop, and a resumed session
// fast-forwards to its mid-epoch position and reproduces the uninterrupted
// run bit for bit.
//
// Per-step order: LR → TrainBatch → OnBatch → health verdict → checkpoint +
// OnCheckpoint → snapshot. OnEpoch fires after the pass's last step (and its
// checkpoint and snapshot work); early stopping is evaluated after OnEpoch.

// session is the loop state of one attempt.
type session struct {
	o   *trainerOptions
	m   *Model
	lr  LRSchedule // nil = the model's configured rate
	mon *monitor   // nil = monitoring off
	rep Report
	// sum aggregates every batch of the attempt; Report.Stats is its mean.
	sum network.BatchStats
}

// epoch is the running state of one pass.
type epoch struct {
	// index is the 0-based pass index within the session; skipped the
	// batches the resume fast-forward consumed, batches those trained.
	index, skipped, batches int
	sum                     network.BatchStats
	trainTime               time.Duration
}

// addStats folds st into sum.
func addStats(sum *network.BatchStats, st network.BatchStats) {
	sum.Samples += st.Samples
	sum.Loss += st.Loss
	sum.ActiveSum += st.ActiveSum
	sum.Rebuilt = sum.Rebuilt || st.Rebuilt
	sum.NonFinite += st.NonFinite
}

// runOnce executes one session attempt. retry marks a post-rollback replay
// (it forces the resume fast-forward); lrScale multiplies the learning rate
// — schedule or model-configured — when != 1. Errors come back unwrapped:
// Run wraps them or rolls back.
func (t *Trainer) runOnce(ctx context.Context, retry bool, lrScale float64) (Report, error) {
	o := &t.o
	net := t.m.net
	src := t.src
	// Sources holding resources (the streaming file reader) are released on
	// every exit path — cancellation and step bounds stop mid-pass, before
	// the source's own end-of-pass close would run. Closed sources accept a
	// later Reset, so the same source can drive another session.
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	// The built-in sources validated their batches when they parsed or
	// generated them; a user source's batches are range-checked against the
	// model as they arrive.
	_, builtin := src.(builtinSource)
	cfg := net.Config()
	se := &session{o: o, m: t.m, lr: o.lr}
	if lrScale != 1 {
		// The backoff compounds on whatever drove the rate before: the
		// schedule, or the model's configured base rate.
		if base := o.lr; base != nil {
			se.lr = func(step int64) float64 { return base(step) * lrScale }
		} else {
			base := cfg.LR
			se.lr = func(int64) float64 { return base * lrScale }
		}
	}
	if o.healthOn() {
		se.mon = new(monitor)
		net.SetGuards(true)
		defer net.SetGuards(false)
	}
	if o.deltaEvery > 0 {
		t.m.EnableDeltas()
	}

	// Opening the checkpoint schedule sweeps debris from crashed sessions:
	// orphaned temp files and ring slots past the retention bound.
	if o.ckptEvery > 0 {
		if _, err := sweepStale(o.ckptPath, o.ckptRetain); err != nil {
			return Report{}, err
		}
	}

	// Resume fast-forward: place the source where the interrupted session's
	// pass left off, deterministically from the step counter alone.
	skip := 0
	if (o.resume || retry) && net.Step() > 0 {
		sized, ok := src.(interface{ BatchesPerEpoch() int })
		if !ok {
			return Report{}, errors.New("resume needs a source with BatchesPerEpoch")
		}
		bpe := sized.BatchesPerEpoch()
		if bpe <= 0 {
			return Report{}, errors.New("resume with an empty source")
		}
		skip = int(net.Step() % int64(bpe))
	}

	var bestLoss float64
	var sinceBest int
	haveBest := false

	for pass := 0; o.epochs == 0 || pass < o.epochs; pass++ {
		if ctx.Err() != nil {
			return se.finish(StopCanceled)
		}
		if o.maxSteps > 0 && net.Step() >= o.maxSteps {
			return se.finish(StopMaxSteps)
		}

		seedStep := net.Step()
		if pass == 0 {
			// The interrupted pass began skip batches before the checkpoint.
			seedStep -= int64(skip)
		}
		if err := src.Reset(uint64(seedStep) + 1); err != nil {
			return se.rep, err
		}
		ep := epoch{index: pass}
		if pass == 0 {
			for i := 0; i < skip; i++ {
				if _, err := src.Next(); err != nil {
					return se.rep, fmt.Errorf("resume fast-forward: %w", err)
				}
			}
			ep.skipped = skip
		}
		stopped := StopCompleted
		for stopped == StopCompleted {
			if ctx.Err() != nil {
				stopped = StopCanceled
				break
			}
			if err := faultinject.Hit(faultinject.PointSourceRead); err != nil {
				se.merge(&ep)
				return se.rep, fmt.Errorf("reading batch: %w", err)
			}
			b, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err == nil && !builtin {
				err = checkBatch(src, b, cfg.InputDim, cfg.OutputDim)
			}
			if err == nil {
				err = se.step(b.b, &ep)
			}
			if err != nil {
				se.merge(&ep)
				return se.rep, err
			}
			if o.maxSteps > 0 && net.Step() >= o.maxSteps {
				stopped = StopMaxSteps
			}
		}
		se.merge(&ep)
		if stopped != StopCompleted {
			return se.finish(stopped)
		}

		// Pass completed.
		se.rep.Epochs++
		if o.onEpoch != nil {
			o.onEpoch(EpochEvent{
				Epoch: pass, Batches: ep.batches,
				Stats: batchStats(ep.sum), TrainTime: ep.trainTime,
			})
		}
		if o.earlyPatience > 0 && ep.sum.Samples > 0 {
			meanLoss := ep.sum.Loss / float64(ep.sum.Samples)
			if !haveBest || meanLoss < bestLoss-o.earlyMinDelta {
				bestLoss, haveBest, sinceBest = meanLoss, true, 0
			} else {
				sinceBest++
				if sinceBest >= o.earlyPatience {
					return se.finish(StopEarly)
				}
			}
		}
	}
	return se.finish(StopCompleted)
}

// step runs one batch: schedule LR, train, emit OnBatch, judge health,
// checkpoint, snapshot.
func (se *session) step(b sparse.Batch, ep *epoch) error {
	o, net := se.o, se.m.net
	step := net.Step() + 1
	var lr float64
	if se.lr != nil {
		lr = se.lr(step)
		net.SetLR(lr)
	}
	start := time.Now()
	st := net.TrainBatch(b)
	ep.trainTime += time.Since(start)
	addStats(&ep.sum, st)
	ep.batches++

	if o.onBatch != nil {
		o.onBatch(BatchEvent{
			Step: step, Epoch: ep.index, Batch: ep.skipped + ep.batches - 1,
			Stats: batchStats(st), LR: lr,
		})
	}
	// The health verdict comes before the step's checkpoint and snapshot
	// work: a red batch must never persist or publish the weights it
	// poisoned.
	if se.mon != nil {
		var meanLoss float64
		if st.Samples > 0 {
			meanLoss = st.Loss / float64(st.Samples)
		}
		if ev, red := se.mon.observe(step, meanLoss, st.NonFinite); red {
			if o.onHealth != nil {
				o.onHealth(ev)
			}
			return &HealthError{Event: ev}
		}
	}
	if o.ckptEvery > 0 && step%int64(o.ckptEvery) == 0 {
		if err := se.checkpoint(step); err != nil {
			return err
		}
	}
	if o.snapEvery > 0 && step%int64(o.snapEvery) == 0 {
		o.snapPublish(se.m.Snapshot())
	}
	if o.deltaEvery > 0 && step%int64(o.deltaEvery) == 0 {
		o.deltaPublish(se.m.SnapshotDelta())
	}
	return nil
}

// checkpoint writes one atomic checkpoint (rotating the retention ring) and
// emits OnCheckpoint.
func (se *session) checkpoint(step int64) error {
	o := se.o
	if err := atomicCheckpoint(se.m.net, o.ckptPath, o.ckptRetain); err != nil {
		return err
	}
	se.rep.LastCheckpoint = step
	if o.onCheckpoint != nil {
		o.onCheckpoint(CheckpointEvent{Step: step, Path: o.ckptPath})
	}
	return nil
}

// merge folds a (possibly partial) pass into the session report.
func (se *session) merge(ep *epoch) {
	se.rep.Steps += int64(ep.batches)
	se.rep.TrainTime += ep.trainTime
	addStats(&se.sum, ep.sum)
	se.rep.Stats = batchStats(se.sum)
}

// finish writes the final checkpoint (if the schedule is on and steps ran
// since the last one) and returns the report. A canceled session therefore
// always leaves a loadable checkpoint at the configured path.
func (se *session) finish(reason StopReason) (Report, error) {
	se.rep.Reason = reason
	if step := se.m.net.Step(); se.o.ckptEvery > 0 && se.rep.Steps > 0 && step != se.rep.LastCheckpoint {
		if err := se.checkpoint(step); err != nil {
			return se.rep, err
		}
	}
	return se.rep, nil
}
