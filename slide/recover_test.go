package slide

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/slide-cpu/slide/internal/faultinject"
)

// trainSteps runs one Trainer session to maxSteps on a fresh source in
// batches of 16 and returns what Run returned.
func trainSteps(t *testing.T, m *Model, train *Dataset, maxSteps int64, extra ...TrainerOption) (Report, error) {
	t.Helper()
	src, err := NewDatasetSource(train, 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]TrainerOption{WithEpochs(0), WithMaxSteps(maxSteps)}, extra...)
	tr, err := NewTrainer(m, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Run(context.Background())
}

// runTrainer is trainSteps for a session that must succeed.
func runTrainer(t *testing.T, m *Model, train *Dataset, maxSteps int64, extra ...TrainerOption) Report {
	t.Helper()
	rep, err := trainSteps(t, m, train, maxSteps, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// damage rewrites path through fn.
func damage(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosResumeFromLastGood is the acceptance scenario end to end: a
// seeded chaos run kills training mid-checkpoint (torn write), then the
// newest surviving checkpoint is truncated and the next one bit-flipped —
// and LoadLastGood still resumes from the newest valid ring slot,
// bit-identically to an uninterrupted run.
func TestChaosResumeFromLastGood(t *testing.T) {
	train, _ := tinyData(t)
	const total = 12

	full := detModel(t, train)
	runTrainer(t, full, train, total)
	want := modelBytes(t, full)

	// Chaos run: checkpoint every 2 steps, ring of 3; the fourth checkpoint
	// write (step 8) is torn after 128 bytes — a simulated kill.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.slide")
	plan, err := faultinject.Parse("checkpoint.write@4=cut:128", 42)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)

	crashed := detModel(t, train)
	src, err := NewDatasetSource(train, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(crashed, src,
		WithEpochs(0), WithMaxSteps(total),
		WithCheckpoints(ckpt, 2), WithCheckpointRetain(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("chaos run err = %v, want an injected fault", err)
	}
	faultinject.Disarm()

	// The kill left the ring at steps 6, 4, 2. Damage the two newest: the
	// primary is truncated, the first fallback gets one flipped bit.
	damage(t, ckpt, func(b []byte) []byte { return b[:len(b)/2] })
	damage(t, ckpt+".1", func(b []byte) []byte {
		b[len(b)/2] ^= 0x10
		return b
	})

	// The damaged slots must report typed corruption with a section name.
	if _, err := LoadFile(ckpt); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint err = %v, want ErrCorruptCheckpoint", err)
	}
	_, err = LoadFile(ckpt + ".1")
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bit-flipped checkpoint err = %v, want ErrCorruptCheckpoint", err)
	}
	if sec, _, ok := CorruptSection(err); !ok || sec == "" {
		t.Fatalf("CorruptSection(%v) = %q, %v", err, sec, ok)
	}

	// LoadLastGood falls through both damaged slots to the step-2 survivor.
	m, used, err := LoadLastGood(ckpt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if used != ckpt+".2" {
		t.Fatalf("loaded %s, want the second fallback", used)
	}
	if m.Steps() != 2 {
		t.Fatalf("last-good checkpoint at step %d, want 2", m.Steps())
	}

	// Resume to the full step budget: bit-identical to the clean run.
	runTrainer(t, m, train, total, WithResume())
	if !bytes.Equal(want, modelBytes(t, m)) {
		t.Fatal("chaos-resumed weights differ from the uninterrupted run")
	}
}

func TestLoadLastGoodErrors(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "none.slide")
	if _, _, err := LoadLastGood(ckpt, 3); err == nil {
		t.Fatal("empty ring loaded")
	}
	// A ring whose every slot is damaged reports corruption.
	if err := os.WriteFile(ckpt, []byte("SLIDnope"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadLastGood(ckpt, 1)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

func touch(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestRingPaths(t *testing.T) {
	got := ringPaths("/d/ck", 3)
	want := []string{"/d/ck", "/d/ck.1", "/d/ck.2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ringPaths = %v, want %v", got, want)
		}
	}
	if ps := ringPaths("/d/ck", 0); len(ps) != 1 || ps[0] != "/d/ck" {
		t.Fatalf("ringPaths(0) = %v", ps)
	}
}

func TestSweepStaleRemovesDebris(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.slide")
	keep := []string{ckpt, ckpt + ".1", filepath.Join(dir, "other.slide"), ckpt + ".bak"}
	stale := []string{ckpt + ".tmp-12345", ckpt + ".tmp-zz", ckpt + ".2", ckpt + ".7"}
	for _, p := range append(append([]string{}, keep...), stale...) {
		touch(t, p)
	}
	removed, err := sweepStale(ckpt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != len(stale) {
		t.Fatalf("removed %v, want the %d stale files", removed, len(stale))
	}
	for _, p := range keep {
		if !exists(p) {
			t.Fatalf("sweep removed live file %s", p)
		}
	}
	for _, p := range stale {
		if exists(p) {
			t.Fatalf("sweep left %s", p)
		}
	}
}

// TestTrainerSweepsTempsAtOpen: a session with a checkpoint schedule clears
// orphaned temp files when it opens the checkpoint directory.
func TestTrainerSweepsTempsAtOpen(t *testing.T) {
	train, _ := tinyData(t)
	ckpt := filepath.Join(t.TempDir(), "ck.slide")
	orphan := ckpt + ".tmp-orphan1"
	touch(t, orphan)
	runTrainer(t, detModel(t, train), train, 2, WithCheckpoints(ckpt, 2))
	if exists(orphan) {
		t.Fatal("session did not sweep the orphaned temp file")
	}
	if !exists(ckpt) {
		t.Fatal("checkpoint missing")
	}
}

// TestCheckpointRingRotation: with WithCheckpointRetain(3) the last three
// checkpoints survive, newest first.
func TestCheckpointRingRotation(t *testing.T) {
	train, _ := tinyData(t)
	ckpt := filepath.Join(t.TempDir(), "ck.slide")
	rep := runTrainer(t, detModel(t, train), train, 8,
		WithCheckpoints(ckpt, 2), WithCheckpointRetain(3))
	if rep.LastCheckpoint != 8 {
		t.Fatalf("last checkpoint at %d, want 8", rep.LastCheckpoint)
	}
	wantSteps := []int64{8, 6, 4}
	for i, p := range ringPaths(ckpt, 3) {
		m, err := LoadFile(p)
		if err != nil {
			t.Fatalf("ring slot %d unloadable: %v", i, err)
		}
		if m.Steps() != wantSteps[i] {
			t.Fatalf("ring slot %d at step %d, want %d", i, m.Steps(), wantSteps[i])
		}
	}
	if exists(ckpt + ".3") {
		t.Fatal("ring grew past the retention bound")
	}
}

// TestChaosKillMidCheckpointResume is the torn-write path the atomic rename
// claims to cover: a simulated crash partway through the second checkpoint's
// temp-file write must leave the primary checkpoint (the first one) intact,
// leave the torn temp on disk like a real kill would, and a resumed session
// from that checkpoint must be bit-identical to an uninterrupted run.
func TestChaosKillMidCheckpointResume(t *testing.T) {
	train, _ := tinyData(t)
	bpe := (train.Len() + 15) / 16
	if bpe < 3 {
		t.Fatalf("workload too small: %d batches/epoch", bpe)
	}
	total := int64(bpe + bpe/2)

	full := detModel(t, train)
	runTrainer(t, full, train, total)

	// Chaos run: the second checkpoint write is torn after 64 bytes.
	ckpt := filepath.Join(t.TempDir(), "ck.slide")
	plan := armFaults(t, "checkpoint.write@2=cut:64")
	_, err := trainSteps(t, detModel(t, train), train, total,
		WithCheckpoints(ckpt, 3), WithCheckpointRetain(2))
	faultinject.Disarm()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("chaos run err = %v, want an injected fault", err)
	}
	if fired := plan.Fired(); len(fired) != 1 {
		t.Fatalf("plan fired %v, want exactly the scripted cut", fired)
	}

	// The crash left debris: a torn temp file, and the first checkpoint
	// intact in the primary slot.
	torn, err := filepath.Glob(ckpt + ".tmp-*")
	if err != nil || len(torn) != 1 {
		t.Fatalf("torn temps %v (err %v), want exactly one", torn, err)
	}
	fi, err := os.Stat(torn[0])
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 64 {
		t.Fatalf("torn temp size %d, want the 64 scripted bytes", fi.Size())
	}
	resumed, err := LoadFile(ckpt)
	if err != nil {
		t.Fatalf("primary checkpoint unloadable after torn write: %v", err)
	}
	if resumed.Steps() != 3 {
		t.Fatalf("surviving checkpoint at step %d, want 3", resumed.Steps())
	}

	// Resume (which also sweeps the torn temp) and finish the run.
	runTrainer(t, resumed, train, total,
		WithResume(), WithCheckpoints(ckpt, 3), WithCheckpointRetain(2))
	if left, _ := filepath.Glob(ckpt + ".tmp-*"); len(left) != 0 {
		t.Fatalf("resume session left temps %v", left)
	}
	if !bytes.Equal(modelBytes(t, full), modelBytes(t, resumed)) {
		t.Fatal("resumed weights differ from the uninterrupted run")
	}
}

// TestChaosRenameCrashOrphansTemp: a simulated crash between the temp write
// and the rename leaves the fully written temp orphaned and the primary
// untouched; the next session sweeps it.
func TestChaosRenameCrashOrphansTemp(t *testing.T) {
	train, _ := tinyData(t)
	ckpt := filepath.Join(t.TempDir(), "ck.slide")
	armFaults(t, "checkpoint.rename@1=err")
	_, err := trainSteps(t, detModel(t, train), train, 2, WithCheckpoints(ckpt, 2))
	faultinject.Disarm()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want an injected fault", err)
	}
	if exists(ckpt) {
		t.Fatal("primary checkpoint appeared despite the rename never running")
	}
	if orphans, _ := filepath.Glob(ckpt + ".tmp-*"); len(orphans) != 1 {
		t.Fatalf("orphans %v, want exactly one", orphans)
	}
	runTrainer(t, detModel(t, train), train, 2, WithCheckpoints(ckpt, 2))
	if left, _ := filepath.Glob(ckpt + ".tmp-*"); len(left) != 0 {
		t.Fatalf("orphan survived the next session's sweep: %v", left)
	}
}

// TestChaosSourceReadFault: an injected data-source error aborts the session
// with an error wrapping the injected fault and a report of the steps run.
func TestChaosSourceReadFault(t *testing.T) {
	train, _ := tinyData(t)
	armFaults(t, "datasource.read@2=err")
	rep, err := trainSteps(t, detModel(t, train), train, 8)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want an injected fault", err)
	}
	if rep.Steps != 1 {
		t.Fatalf("session ran %d steps before the injected read fault, want 1", rep.Steps)
	}
}
