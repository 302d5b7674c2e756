package slide

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/slide-cpu/slide/internal/faultinject"
)

// sameEvent compares health events field-wise; losses compare by bit
// pattern so a NaN loss equals itself (a NonFinite event's Loss is NaN by
// construction, and NaN != NaN under ==).
func sameEvent(a, b HealthEvent) bool {
	return a.Kind == b.Kind && a.Step == b.Step && a.NonFinite == b.NonFinite &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
		math.Float64bits(a.EWMA) == math.Float64bits(b.EWMA)
}

// armFaults arms a fault-injection plan for the test and disarms it on
// cleanup (the armed plan is process-global).
func armFaults(t *testing.T, rule string) *faultinject.Plan {
	t.Helper()
	plan, err := faultinject.Parse(rule, 7)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)
	return plan
}

// TestHealthVerdictWorkerIndependent: the NaN guard's verdict — which step
// trips, what kind, how many non-finite values — is bit-identical at any
// worker count on the deterministic sharded engine, because the count is an
// order-independent integer sum over per-shard logit scans.
func TestHealthVerdictWorkerIndependent(t *testing.T) {
	ds, _ := tinyData(t)
	var events []HealthEvent
	for _, w := range []int{1, 2, 4} {
		armFaults(t, "train.batch@5=nan:0")
		m, err := New(ds.Features(), 16, ds.NumLabels(),
			WithDWTA(3, 8),
			WithLearningRate(1e-3),
			WithShards(2),
			WithWorkers(w),
			WithSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewDatasetSource(ds, 16)
		if err != nil {
			t.Fatal(err)
		}
		var seen []HealthEvent
		tr, err := NewTrainer(m, src,
			WithEpochs(0), WithMaxSteps(10),
			WithOnHealth(func(ev HealthEvent) { seen = append(seen, ev) }))
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.Run(context.Background())
		faultinject.Disarm()
		var he *HealthError
		if !errors.As(err, &he) {
			t.Fatalf("W=%d: err = %v, want HealthError", w, err)
		}
		if len(seen) != 1 || !sameEvent(seen[0], he.Event) {
			t.Fatalf("W=%d: OnHealth saw %v, error carries %v", w, seen, he.Event)
		}
		if he.Event.Kind != HealthNonFinite || he.Event.Step != 5 || he.Event.NonFinite == 0 {
			t.Fatalf("W=%d: unexpected event %+v", w, he.Event)
		}
		events = append(events, he.Event)
	}
	for i := 1; i < len(events); i++ {
		if !sameEvent(events[i], events[0]) {
			t.Fatalf("verdict differs across worker counts: W=1 %+v vs %+v", events[0], events[i])
		}
	}
}

// TestAutoRollbackBitIdentical is the tentpole acceptance scenario: a NaN
// poisoned into step 8 is detected before anything persists, the trainer
// rolls back to the newest ring checkpoint, replays (with lrFactor 1.0,
// i.e. no retune), completes the full budget — and the final weights are
// bit-identical to a run that was never poisoned.
func TestAutoRollbackBitIdentical(t *testing.T) {
	ds, _ := tinyData(t)
	const total = 12

	clean := detModel(t, ds)
	runTrainer(t, clean, ds, total)
	want := modelBytes(t, clean)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.slide")
	armFaults(t, "train.batch@8=nan:0")

	m := detModel(t, ds)
	src, err := NewDatasetSource(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	var health []HealthEvent
	var rollbacks []RollbackEvent
	tr, err := NewTrainer(m, src,
		WithEpochs(0), WithMaxSteps(total),
		WithCheckpoints(ckpt, 2), WithCheckpointRetain(3),
		WithAutoRollback(2, 1.0),
		WithOnHealth(func(ev HealthEvent) { health = append(health, ev) }),
		WithOnRollback(func(ev RollbackEvent) { rollbacks = append(rollbacks, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatalf("poisoned run did not self-heal: %v", err)
	}
	if len(health) != 1 || health[0].Kind != HealthNonFinite || health[0].Step != 8 {
		t.Fatalf("health events = %+v, want one non-finite at step 8", health)
	}
	if len(rollbacks) != 1 {
		t.Fatalf("rollbacks = %+v, want exactly one", rollbacks)
	}
	rb := rollbacks[0]
	if rb.Attempt != 1 || rb.Step != 6 || rb.Checkpoint == "" || rb.LRScale != 1.0 {
		t.Fatalf("rollback event %+v, want attempt 1 from step 6 at lr scale 1", rb)
	}
	if !sameEvent(rb.Cause, health[0]) {
		t.Fatalf("rollback cause %+v != health event %+v", rb.Cause, health[0])
	}
	if m.Steps() != total {
		t.Fatalf("finished at step %d, want %d", m.Steps(), total)
	}
	if rep.Steps == 0 {
		t.Fatal("report covers no steps")
	}
	if !bytes.Equal(want, modelBytes(t, m)) {
		t.Fatal("self-healed weights differ from the never-poisoned run")
	}
	// The final checkpoint on disk is the healed model: valid and finite.
	final, used, err := LoadLastGood(ckpt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if used != ckpt || final.Steps() != total {
		t.Fatalf("final checkpoint %s at step %d, want %s at %d", used, final.Steps(), ckpt, total)
	}
	if err := final.Snapshot().CheckFinite(); err != nil {
		t.Fatalf("final checkpoint is not finite: %v", err)
	}
}

// TestAutoRollbackExhausted: a fault that re-fires on every replay burns
// the retry budget and surfaces the typed terminal error instead of
// looping forever.
func TestAutoRollbackExhausted(t *testing.T) {
	ds, _ := tinyData(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.slide")
	armFaults(t, "train.batch@6=nan:0")

	m := detModel(t, ds)
	src, err := NewDatasetSource(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, src,
		WithEpochs(0), WithMaxSteps(12),
		WithCheckpoints(ckpt, 2), WithCheckpointRetain(3),
		WithAutoRollback(1, 0.5),
		WithOnRollback(func(ev RollbackEvent) {
			// Sabotage the replay: poison the second batch of the retry too.
			plan, err := faultinject.Parse("train.batch@2=nan:0", 7)
			if err != nil {
				t.Error(err)
				return
			}
			faultinject.Arm(plan)
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Run(context.Background())
	var ex *RollbackExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want RollbackExhaustedError", err)
	}
	if ex.Attempts != 1 || ex.Event.Kind != HealthNonFinite {
		t.Fatalf("exhausted error %+v, want 1 attempt ending on non-finite", ex)
	}
}

// TestAutoRollbackOptionValidation: the rollback options reject nonsense at
// construction, not mid-run.
func TestAutoRollbackOptionValidation(t *testing.T) {
	ds, _ := tinyData(t)
	m := detModel(t, ds)
	src, err := NewDatasetSource(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Rollback without checkpoints has nothing to roll back to.
	if _, err := NewTrainer(m, src, WithEpochs(1), WithAutoRollback(2, 0.5)); err == nil {
		t.Fatal("rollback without checkpoints accepted")
	}
	// An LR factor outside (0, 1] is not a backoff.
	if _, err := NewTrainer(m, src, WithEpochs(1),
		WithCheckpoints(filepath.Join(t.TempDir(), "ck"), 2),
		WithAutoRollback(2, 1.5)); err == nil {
		t.Fatal("lr factor > 1 accepted")
	}
	if _, err := NewTrainer(m, src, WithEpochs(1),
		WithCheckpoints(filepath.Join(t.TempDir(), "ck"), 2),
		WithAutoRollback(-1, 0.5)); err == nil {
		t.Fatal("negative retry budget accepted")
	}
}

func TestHealthMonitorNonFinite(t *testing.T) {
	var m monitor
	if _, red := m.observe(1, 2.0, 0); red {
		t.Fatal("healthy batch flagged red")
	}
	e, red := m.observe(2, 2.0, 3)
	if !red || e.Kind != HealthNonFinite || e.NonFinite != 3 || e.Step != 2 {
		t.Fatalf("non-finite count not flagged: %+v red=%v", e, red)
	}
	e, red = m.observe(3, math.NaN(), 0)
	if !red || e.Kind != HealthNonFinite {
		t.Fatalf("NaN loss not flagged: %+v red=%v", e, red)
	}
	e, red = m.observe(4, math.Inf(1), 0)
	if !red || e.Kind != HealthNonFinite {
		t.Fatalf("Inf loss not flagged: %+v red=%v", e, red)
	}
}

// TestHealthMonitorSpikeAndWarmup pins the monitor's settings: spike
// detection arms after 20 batches, the EWMA smooths by 0.1 and a spike is
// a loss above 3 × the EWMA.
func TestHealthMonitorSpikeAndWarmup(t *testing.T) {
	var m monitor
	for s := int64(1); s < 20; s++ {
		if _, red := m.observe(s, 2.0, 0); red {
			t.Fatalf("warmup batch %d flagged red", s)
		}
	}
	// The 20th batch is still in warmup: even a big jump passes, and is
	// folded in.
	if _, red := m.observe(20, 100, 0); red {
		t.Fatal("last warmup batch flagged red")
	}
	if want := 2 + 0.1*98; math.Abs(m.ewma-want) > 1e-12 {
		t.Fatalf("EWMA after the jump = %g, want %g", m.ewma, want)
	}
	// Armed at EWMA 11.8: just under 3 × passes as a wobble ...
	if _, red := m.observe(21, 35, 0); red {
		t.Fatal("wobble under 3 × EWMA flagged red")
	}
	// ... and, at EWMA 14.12, just over 3 × trips.
	e, red := m.observe(22, 43, 0)
	if !red || e.Kind != HealthLossSpike || math.Abs(e.EWMA-14.12) > 1e-12 {
		t.Fatalf("spike not flagged: %+v red=%v", e, red)
	}
	// The red batch was not folded in: the same spike trips again.
	if _, red := m.observe(23, 43, 0); !red {
		t.Fatal("spike folded into EWMA despite red verdict")
	}
	// A fresh monitor, as every rollback attempt builds, re-enters warmup.
	m = monitor{}
	if _, red := m.observe(24, 1000, 0); red {
		t.Fatal("fresh monitor's batch flagged red during warmup")
	}
}

func TestHealthMonitorDeterministicReplay(t *testing.T) {
	// Two monitors fed the same sequence produce identical verdicts and
	// EWMA — the property the rollback replay depends on. The sequence
	// outlasts the warmup and spikes once after it.
	seq := make([]float64, healthWarmup+10)
	for i := range seq {
		seq[i] = 2 + 0.1*float64(i%5)
	}
	seq[healthWarmup+3] = 9.9
	var a, b monitor
	reds := 0
	for i, l := range seq {
		ea, ra := a.observe(int64(i), l, 0)
		eb, rb := b.observe(int64(i), l, 0)
		if ra != rb || ea != eb {
			t.Fatalf("step %d: verdicts diverged: %+v/%v vs %+v/%v", i, ea, ra, eb, rb)
		}
		if ra {
			reds++
		}
	}
	if reds != 1 {
		t.Fatalf("%d red verdicts, want the one spike", reds)
	}
	if a.ewma != b.ewma {
		t.Fatalf("EWMA diverged: %g vs %g", a.ewma, b.ewma)
	}
}
