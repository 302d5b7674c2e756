package slide

import (
	"fmt"
	"math"
)

// Numerical health monitoring and self-healing rollback. With monitoring
// enabled the session runs cheap per-step guards — a NaN/Inf scan of the
// active-set logits (order-independent, so the verdict is bit-identical at
// any worker or shard count) plus an EWMA loss-spike detector — and aborts
// the session with *HealthError before a red step can checkpoint or
// publish. WithAutoRollback turns the abort into recovery:
// reload the newest valid checkpoint from the retention ring, back off the
// learning rate, and replay; the replay is deterministic, so once past a
// transient fault window the healed run is bit-identical to a run that
// never faulted (given an unchanged LR scale).

// HealthKind classifies a red health verdict.
type HealthKind int

const (
	// HealthNonFinite: NaN/Inf in the logits or the batch loss.
	HealthNonFinite HealthKind = iota + 1
	// HealthLossSpike: batch mean loss exceeded 3 x the EWMA.
	HealthLossSpike
)

// String implements fmt.Stringer.
func (k HealthKind) String() string {
	switch k {
	case HealthNonFinite:
		return "non-finite"
	case HealthLossSpike:
		return "loss-spike"
	default:
		return "unknown"
	}
}

// HealthEvent describes one red health verdict.
type HealthEvent struct {
	// Kind classifies the verdict.
	Kind HealthKind
	// Step is the optimizer step of the offending batch.
	Step int64
	// Loss is the batch mean loss; EWMA the detector's smoothed loss at the
	// time of the verdict.
	Loss, EWMA float64
	// NonFinite is the number of non-finite logits the guards counted
	// (HealthNonFinite only).
	NonFinite int64
}

// String implements fmt.Stringer.
func (e HealthEvent) String() string {
	switch e.Kind {
	case HealthNonFinite:
		return fmt.Sprintf("non-finite values at step %d (%d logits, loss %g)", e.Step, e.NonFinite, e.Loss)
	case HealthLossSpike:
		return fmt.Sprintf("loss spike at step %d (%g vs EWMA %g)", e.Step, e.Loss, e.EWMA)
	default:
		return fmt.Sprintf("health event at step %d", e.Step)
	}
}

// The monitor's settings. Spike detection arms after healthWarmup batches —
// early-training loss is legitimately volatile — and flags a batch whose
// mean loss exceeds healthSpikeFactor x the EWMA of smoothing factor
// healthAlpha.
const (
	healthWarmup      = 20
	healthAlpha       = 0.1
	healthSpikeFactor = 3
)

// monitor is the session's loss-trajectory detector: an EWMA of batch mean
// losses plus the non-finite guard verdicts. The session observes between
// batches on its own goroutine, so the verdicts are a deterministic function
// of the sequence of observations; every attempt of a Run builds a fresh
// one, so a rollback replay re-warms from the restored checkpoint.
type monitor struct {
	ewma float64
	seen int
}

// observe folds one batch into the monitor and reports a red verdict if
// any. meanLoss is the batch mean loss; nonFinite the count of non-finite
// values the engine's guards found in the batch. A red batch is not folded
// into the EWMA — the baseline stays the healthy trajectory, so the replay
// after a rollback re-derives the same verdicts at the same steps.
func (m *monitor) observe(step int64, meanLoss float64, nonFinite int64) (HealthEvent, bool) {
	e := HealthEvent{Step: step, Loss: meanLoss, EWMA: m.ewma, NonFinite: nonFinite}
	if nonFinite > 0 || math.IsNaN(meanLoss) || math.IsInf(meanLoss, 0) {
		e.Kind = HealthNonFinite
		return e, true
	}
	if m.seen >= healthWarmup && m.ewma > 0 && meanLoss > healthSpikeFactor*m.ewma {
		e.Kind = HealthLossSpike
		return e, true
	}
	if m.seen == 0 {
		m.ewma = meanLoss
	} else {
		m.ewma += healthAlpha * (meanLoss - m.ewma)
	}
	m.seen++
	return HealthEvent{}, false
}

// HealthError is the typed error a session returns when the health monitor
// flags a red batch and auto-rollback is off (or exhausted before this
// attempt started). The newest checkpoint on disk predates the fault.
type HealthError struct {
	Event HealthEvent
}

// Error implements error.
func (e *HealthError) Error() string { return fmt.Sprintf("health abort: %s", e.Event) }

// RollbackExhaustedError is the terminal error when every WithAutoRollback
// retry was spent and the monitor still flagged the run.
type RollbackExhaustedError struct {
	// Attempts is the number of rollbacks performed.
	Attempts int
	// Event is the verdict that ended the final attempt.
	Event HealthEvent
}

// Error implements error.
func (e *RollbackExhaustedError) Error() string {
	return fmt.Sprintf("rollback budget exhausted after %d attempt(s): %s", e.Attempts, e.Event)
}

// RollbackEvent reports one automatic rollback, delivered to WithOnRollback
// after the model has been restored and before the replay starts.
type RollbackEvent struct {
	// Attempt is the 1-based rollback count within this Run.
	Attempt int
	// Step is the optimizer step of the checkpoint restored.
	Step int64
	// Checkpoint is the ring path that loaded.
	Checkpoint string
	// Cause is the health verdict that triggered the rollback.
	Cause HealthEvent
	// LRScale is the cumulative learning-rate factor the replay will use.
	LRScale float64
}

// WithOnHealth registers a hook called on every red health verdict, right
// before the session aborts (and, under WithAutoRollback, rolls back).
// Implies monitoring: per-step NaN/Inf guards on the training pass plus EWMA
// loss-spike detection. A red verdict aborts Run with *HealthError — before
// the offending step can checkpoint or publish a snapshot — unless
// WithAutoRollback turns it into recovery.
func WithOnHealth(fn func(HealthEvent)) TrainerOption {
	return func(o *trainerOptions) { o.onHealth = fn }
}

// WithAutoRollback closes the detect → rollback → retune loop: when the
// health monitor flags the run, the trainer reloads the newest valid
// checkpoint from the retention ring (LoadLastGood), multiplies the
// learning rate by lrFactor (compounding per rollback; 1.0 replays at full
// rate), and resumes deterministically. After maxRetries rollbacks the next
// red verdict returns *RollbackExhaustedError. Implies monitoring; requires
// WithCheckpoints and a source with BatchesPerEpoch (every replay resumes).
func WithAutoRollback(maxRetries int, lrFactor float64) TrainerOption {
	return func(o *trainerOptions) { o.rollbackMax, o.rollbackLR = maxRetries, lrFactor }
}

// WithOnRollback registers a hook called after every automatic rollback,
// once the model is restored and before the replay starts.
func WithOnRollback(fn func(RollbackEvent)) TrainerOption {
	return func(o *trainerOptions) { o.onRollback = fn }
}
