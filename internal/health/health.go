// Package health is the numerical-health layer of the train-and-serve
// stack: cheap detectors that turn a NaN gradient, an exploding loss, or a
// silently diverging model into a typed event the training engine can act
// on (roll back to the last good checkpoint) and the serving/replication
// layers can refuse to publish (quarantine).
//
// Everything here is deterministic: the finite scans are pure functions of
// the values scanned, and the Monitor folds batch statistics in call order
// on a single goroutine — so a verdict at optimizer step N is bit-identical
// across worker counts and across a rollback replay of the same steps.
package health

import (
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/bf16"
)

// Kind classifies a health event.
type Kind int

const (
	// NonFinite: a NaN or ±Inf surfaced in the forward pass (logits or
	// per-sample loss) — the model's parameters or activations are poisoned.
	NonFinite Kind = iota + 1
	// LossSpike: the batch mean loss jumped past the spike factor times the
	// EWMA of recent batches — a likely exploding step (bad LR, bad batch).
	LossSpike
	// Divergence: the batch mean loss exceeded the absolute divergence
	// ceiling — training has left the plausible regime entirely.
	Divergence
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case NonFinite:
		return "non-finite"
	case LossSpike:
		return "loss-spike"
	case Divergence:
		return "divergence"
	default:
		return fmt.Sprintf("health.Kind(%d)", int(k))
	}
}

// Event is one red verdict from the Monitor: the step it fired on and the
// numbers that tripped it.
type Event struct {
	// Kind is what tripped.
	Kind Kind
	// Step is the optimizer step whose batch produced the verdict.
	Step int64
	// Loss is the batch mean loss observed at the verdict.
	Loss float64
	// EWMA is the monitor's loss average going into the batch (zero before
	// warmup completes) — the baseline a LossSpike was measured against.
	EWMA float64
	// NonFinite counts the non-finite logits and losses the batch guards
	// found (zero for pure loss verdicts).
	NonFinite int64
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case NonFinite:
		return fmt.Sprintf("%s at step %d: %d non-finite value(s), batch loss %g",
			e.Kind, e.Step, e.NonFinite, e.Loss)
	case LossSpike:
		return fmt.Sprintf("%s at step %d: batch loss %g vs EWMA %g",
			e.Kind, e.Step, e.Loss, e.EWMA)
	default:
		return fmt.Sprintf("%s at step %d: batch loss %g", e.Kind, e.Step, e.Loss)
	}
}

// Config tunes the Monitor. The zero value takes the defaults below.
type Config struct {
	// Warmup is how many healthy batches the EWMA folds in before the
	// LossSpike detector arms (the first batches of a fresh model are
	// legitimately erratic). Default 20.
	Warmup int
	// Alpha is the EWMA smoothing factor in (0, 1]; smaller = smoother.
	// Default 0.1.
	Alpha float64
	// SpikeFactor fires LossSpike when the batch mean loss exceeds
	// SpikeFactor times the warmed-up EWMA. Default 3; <= 1 disables the
	// spike detector.
	SpikeFactor float64
	// DivergenceLoss fires Divergence when the batch mean loss exceeds this
	// absolute ceiling, warmup or not. Default 0 (disabled).
	DivergenceLoss float64
}

func (c Config) withDefaults() Config {
	if c.Warmup <= 0 {
		c.Warmup = 20
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.1
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 3
	}
	return c
}

// Monitor is the per-session loss-trajectory detector: an EWMA of batch
// mean losses plus the non-finite guard verdicts. Single-goroutine (the
// training engine observes between batches); deterministic in the sequence
// of Observe calls.
type Monitor struct {
	cfg  Config
	ewma float64
	seen int
}

// NewMonitor builds a monitor; zero-value cfg fields take defaults.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Observe folds one batch into the monitor and reports a red verdict if
// any. meanLoss is the batch mean loss; nonFinite the count of non-finite
// values the engine's guards found in the batch. A red batch is not folded
// into the EWMA — the baseline stays the healthy trajectory, so the replay
// after a rollback re-derives the same verdicts at the same steps.
func (m *Monitor) Observe(step int64, meanLoss float64, nonFinite int64) (Event, bool) {
	e := Event{Step: step, Loss: meanLoss, EWMA: m.ewma, NonFinite: nonFinite}
	if nonFinite > 0 || math.IsNaN(meanLoss) || math.IsInf(meanLoss, 0) {
		e.Kind = NonFinite
		return e, true
	}
	if m.cfg.DivergenceLoss > 0 && meanLoss > m.cfg.DivergenceLoss {
		e.Kind = Divergence
		return e, true
	}
	if m.seen >= m.cfg.Warmup && m.cfg.SpikeFactor > 1 &&
		m.ewma > 0 && meanLoss > m.cfg.SpikeFactor*m.ewma {
		e.Kind = LossSpike
		return e, true
	}
	if m.seen == 0 {
		m.ewma = meanLoss
	} else {
		m.ewma += m.cfg.Alpha * (meanLoss - m.ewma)
	}
	m.seen++
	return Event{}, false
}

// Reset clears the trajectory state. The rollback loop calls it before a
// replay so the EWMA re-warms from the restored checkpoint instead of
// carrying pre-fault history.
func (m *Monitor) Reset() {
	m.ewma = 0
	m.seen = 0
}

// EWMA returns the current smoothed loss (diagnostics).
func (m *Monitor) EWMA() float64 { return m.ewma }

// nonFiniteMask32 selects the float32 exponent bits: all ones means NaN or
// ±Inf. One integer test per value — branch-free in the scan loop below.
const nonFiniteMask32 = 0x7f800000

// CountNonFinite32 returns how many values in x are NaN or ±Inf. The guard
// scan of the training engines: O(len) integer compares over data already
// resident in cache from the forward pass.
func CountNonFinite32(x []float32) int64 {
	var bad int64
	for _, v := range x {
		if math.Float32bits(v)&nonFiniteMask32 == nonFiniteMask32 {
			bad++
		}
	}
	return bad
}

// FirstNonFinite32 returns the index of the first non-finite value in x, or
// -1 — the quarantine scans use it to name the damage.
func FirstNonFinite32(x []float32) int {
	for i, v := range x {
		if math.Float32bits(v)&nonFiniteMask32 == nonFiniteMask32 {
			return i
		}
	}
	return -1
}

// FirstNonFiniteBF16 is FirstNonFinite32 over bfloat16 storage.
func FirstNonFiniteBF16(x []bf16.BF16) int {
	for i, v := range x {
		if uint16(v)&0x7f80 == 0x7f80 {
			return i
		}
	}
	return -1
}
