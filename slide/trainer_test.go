package slide

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// detModel builds a deterministic single-worker model for bit-identity
// tests (one HOGWILD worker = fully deterministic training).
func detModel(t *testing.T, train *Dataset) *Model {
	t.Helper()
	m, err := New(train.Features(), 16, train.NumLabels(),
		WithDWTA(3, 8),
		WithLearningRate(1e-3),
		WithWorkers(1),
		WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainerMatchesLegacyEpochLoop: a single-worker Trainer session must be
// bit-identical to the historical epoch loop (hand-rolled here against
// the internal iterator, exactly as the old implementation drove it), and
// its report must count the passes and steps the model took.
func TestTrainerMatchesLegacyEpochLoop(t *testing.T) {
	train, _ := tinyData(t)
	const batch = 64
	for _, epochs := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d epochs", epochs), func(t *testing.T) {
			legacy := detModel(t, train)
			var legacyStats TrainStats
			for e := 0; e < epochs; e++ {
				// The pre-Trainer epoch body: iterate a seeded shuffle, seed =
				// optimizer step + 1.
				it := train.d.Iter(batch, sparse.Coalesced, uint64(legacy.net.Step())+1)
				agg := TrainStats{}
				for {
					b, ok := it.Next()
					if !ok {
						break
					}
					st := legacy.net.TrainBatch(b)
					agg.Samples += st.Samples
					agg.MeanLoss += st.Loss
					agg.MeanActive += float64(st.ActiveSum)
				}
				agg.MeanLoss /= float64(agg.Samples)
				agg.MeanActive /= float64(agg.Samples)
				legacyStats = agg
			}

			viaTrainer := detModel(t, train)
			src, err := NewDatasetSource(train, batch)
			if err != nil {
				t.Fatal(err)
			}
			var lastEpoch EpochEvent
			trainer, err := NewTrainer(viaTrainer, src,
				WithEpochs(epochs),
				WithOnEpoch(func(e EpochEvent) { lastEpoch = e }))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := trainer.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != StopCompleted || rep.Epochs != epochs {
				t.Fatalf("report %+v, want %d completed epochs", rep, epochs)
			}
			if rep.Steps != viaTrainer.Steps() {
				t.Fatalf("report steps %d, model steps %d", rep.Steps, viaTrainer.Steps())
			}
			if !bytes.Equal(modelBytes(t, legacy), modelBytes(t, viaTrainer)) {
				t.Fatal("Trainer weights differ from the legacy epoch loop")
			}
			if lastEpoch.Stats.MeanLoss != legacyStats.MeanLoss ||
				lastEpoch.Stats.MeanActive != legacyStats.MeanActive {
				t.Fatalf("epoch stats %+v differ from legacy %+v", lastEpoch.Stats, legacyStats)
			}
		})
	}
}

// TestTrainerResumeBitIdentical is the public resume contract: train N steps
// with a checkpoint scheduled at N, load it, continue to N+M with
// WithResume — bit-identical to an uninterrupted N+M session. N lands both
// mid-pass and exactly on a pass boundary.
func TestTrainerResumeBitIdentical(t *testing.T) {
	train, _ := tinyData(t)
	const batch = 64
	src, err := NewDatasetSource(train, batch)
	if err != nil {
		t.Fatal(err)
	}
	bpe := (train.Len() + batch - 1) / batch
	for _, tc := range []struct {
		name string
		n    int64
	}{
		{"mid-epoch", int64(bpe + max(bpe/2, 1))},
		{"epoch boundary", int64(bpe)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			m := int64(bpe)

			full := detModel(t, train)
			fullTrainer, err := NewTrainer(full, src, WithEpochs(0), WithMaxSteps(n+m))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fullTrainer.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "ckpt.slide")
			first := detModel(t, train)
			var ckptEvents []CheckpointEvent
			firstTrainer, err := NewTrainer(first, src,
				WithEpochs(0), WithMaxSteps(n),
				WithCheckpoints(ckpt, int(n)),
				WithOnCheckpoint(func(e CheckpointEvent) { ckptEvents = append(ckptEvents, e) }))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := firstTrainer.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != StopMaxSteps || rep.LastCheckpoint != n {
				t.Fatalf("report %+v, want max-steps stop with checkpoint at step %d", rep, n)
			}
			if len(ckptEvents) == 0 || ckptEvents[0].Step != n || ckptEvents[0].Path != ckpt {
				t.Fatalf("checkpoint events %+v, want step %d at %s", ckptEvents, n, ckpt)
			}

			resumed, err := LoadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Steps() != n {
				t.Fatalf("checkpoint at step %d, want %d", resumed.Steps(), n)
			}
			resTrainer, err := NewTrainer(resumed, src,
				WithEpochs(0), WithMaxSteps(n+m), WithResume())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resTrainer.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if resumed.Steps() != n+m {
				t.Fatalf("resumed to step %d, want %d", resumed.Steps(), n+m)
			}
			if !bytes.Equal(modelBytes(t, full), modelBytes(t, resumed)) {
				t.Fatal("resumed weights differ from the uninterrupted run")
			}
		})
	}
}

// writeXMCFile writes d to a fresh XMC text file and returns its path.
func writeXMCFile(t *testing.T, d *Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteXMC(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTrainerStreamingFileSource: an end-to-end session from a streaming
// XMC file — sequential order trains bit-identically to feeding the file's
// samples in order.
func TestTrainerStreamingFileSource(t *testing.T) {
	train, _ := tinyData(t)
	path := writeXMCFile(t, train)
	const batch = 32

	// Reference: the file's samples in order, batched by hand.
	ref := detModel(t, train)
	for lo := 0; lo < train.Len(); lo += batch {
		hi := min(lo+batch, train.Len())
		samples := make([]Sample, 0, hi-lo)
		for i := lo; i < hi; i++ {
			samples = append(samples, train.Sample(i))
		}
		if _, err := ref.TrainBatch(samples); err != nil {
			t.Fatal(err)
		}
	}

	streamed := detModel(t, train)
	src, err := NewFileSource(path, batch, 0) // sequential
	if err != nil {
		t.Fatal(err)
	}
	if src.Features() != train.Features() || src.NumLabels() != train.NumLabels() {
		t.Fatalf("file source dims %d/%d, want %d/%d",
			src.Features(), src.NumLabels(), train.Features(), train.NumLabels())
	}
	trainer, err := NewTrainer(streamed, src, WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := int64((train.Len() + batch - 1) / batch)
	if rep.Steps != wantSteps {
		t.Fatalf("streamed %d steps, want %d", rep.Steps, wantSteps)
	}
	if !bytes.Equal(modelBytes(t, ref), modelBytes(t, streamed)) {
		t.Fatal("streaming-file training differs from in-order in-memory training")
	}

}

// TestTrainerCancellation: cancelling the context from OnBatch stops the
// session gracefully after that step, over an in-memory and a streaming
// source alike, and the final checkpoint loads at the cancelled step.
func TestTrainerCancellation(t *testing.T) {
	train, _ := tinyData(t)
	path := writeXMCFile(t, train)
	for _, tc := range []struct {
		name string
		src  func() (DataSource, error)
		stop int64
	}{
		{"memory", func() (DataSource, error) { return NewDatasetSource(train, 64) }, 3},
		{"file", func() (DataSource, error) { return NewFileSource(path, 32, 0) }, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.src()
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "ckpt.slide")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			trainer, err := NewTrainer(detModel(t, train), src,
				WithEpochs(0),               // unbounded: only the cancel stops it
				WithCheckpoints(ckpt, 1000), // the schedule never fires mid-run
				WithOnBatch(func(e BatchEvent) {
					if e.Step == tc.stop {
						cancel()
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := trainer.Run(ctx)
			if err != nil {
				t.Fatalf("cancellation must be graceful, got %v", err)
			}
			if rep.Reason != StopCanceled || rep.Steps != tc.stop {
				t.Fatalf("report %+v, want canceled after %d steps", rep, tc.stop)
			}
			back, err := LoadFile(ckpt)
			if err != nil {
				t.Fatalf("final checkpoint unloadable: %v", err)
			}
			if back.Steps() != tc.stop {
				t.Fatalf("checkpoint at step %d, want %d", back.Steps(), tc.stop)
			}
		})
	}
}

// TestTrainerLRSchedules: the schedule shapes and their delivery to batches.
func TestTrainerLRSchedules(t *testing.T) {
	if got := ConstantLR(0.5)(100); got != 0.5 {
		t.Errorf("ConstantLR = %g", got)
	}
	decay := StepDecayLR(1.0, 0.5, 10)
	for _, tc := range []struct {
		step int64
		want float64
	}{{1, 1.0}, {10, 1.0}, {11, 0.5}, {20, 0.5}, {21, 0.25}} {
		if got := decay(tc.step); got != tc.want {
			t.Errorf("StepDecayLR(%d) = %g, want %g", tc.step, got, tc.want)
		}
	}
	warm := WarmupLR(1.0, 10)
	if warm(1) >= warm(5) || warm(5) >= warm(9) {
		t.Error("WarmupLR not increasing during warmup")
	}
	if got := warm(10); got != 1.0 {
		t.Errorf("WarmupLR after warmup = %g, want 1", got)
	}

	// Delivery: every batch sees the scheduled rate.
	train, _ := tinyData(t)
	m := detModel(t, train)
	src, err := NewDatasetSource(train, 64)
	if err != nil {
		t.Fatal(err)
	}
	var lrs []float64
	trainer, err := NewTrainer(m, src,
		WithEpochs(1),
		WithLRSchedule(decay),
		WithOnBatch(func(e BatchEvent) { lrs = append(lrs, e.LR) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, lr := range lrs {
		if want := decay(int64(i + 1)); lr != want {
			t.Fatalf("step %d trained with LR %g, want %g", i+1, lr, want)
		}
	}
}

// TestTrainerHooksAndSchedules: the per-step hook order (OnBatch, then the
// checkpoint schedule's OnCheckpoint, then the snapshot schedule's publish),
// OnEpoch after its pass's last step and that step's work, the batch and
// epoch indices the events carry, and the final checkpoint flush.
func TestTrainerHooksAndSchedules(t *testing.T) {
	train, _ := tinyData(t)
	const batch, epochs, ckptEvery, snapEvery = 64, 2, 3, 2
	src, err := NewDatasetSource(train, batch)
	if err != nil {
		t.Fatal(err)
	}
	bpe := (train.Len() + batch - 1) / batch
	ckpt := filepath.Join(t.TempDir(), "ckpt.slide")

	var got []string
	var snapSteps []int64
	m := detModel(t, train)
	trainer, err := NewTrainer(m, src,
		WithEpochs(epochs),
		WithCheckpoints(ckpt, ckptEvery),
		WithSnapshots(snapEvery, func(*Predictor) {
			snapSteps = append(snapSteps, m.Steps())
			got = append(got, fmt.Sprintf("snapshot %d", m.Steps()))
		}),
		WithOnBatch(func(e BatchEvent) {
			got = append(got, fmt.Sprintf("batch %d epoch %d index %d", e.Step, e.Epoch, e.Batch))
		}),
		WithOnCheckpoint(func(e CheckpointEvent) {
			got = append(got, fmt.Sprintf("checkpoint %d", e.Step))
		}),
		WithOnEpoch(func(e EpochEvent) {
			got = append(got, fmt.Sprintf("epoch %d batches %d", e.Epoch, e.Batches))
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopCompleted || rep.Steps != int64(epochs*bpe) {
		t.Fatalf("report %+v, want %d completed steps", rep, epochs*bpe)
	}

	var want []string
	step := int64(0)
	for e := 0; e < epochs; e++ {
		for b := 0; b < bpe; b++ {
			step++
			want = append(want, fmt.Sprintf("batch %d epoch %d index %d", step, e, b))
			if step%ckptEvery == 0 {
				want = append(want, fmt.Sprintf("checkpoint %d", step))
			}
			if step%snapEvery == 0 {
				want = append(want, fmt.Sprintf("snapshot %d", step))
			}
		}
		want = append(want, fmt.Sprintf("epoch %d batches %d", e, bpe))
	}
	if step%ckptEvery != 0 {
		want = append(want, fmt.Sprintf("checkpoint %d", step)) // the final flush
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d:\ngot  %q\nwant %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
	if rep.LastCheckpoint != step {
		t.Fatalf("last checkpoint at %d, want %d", rep.LastCheckpoint, step)
	}
}

// TestTrainerEarlyStopping: a session that cannot improve stops early: pass
// 0 sets the best loss, and the next patience passes exhaust the patience.
func TestTrainerEarlyStopping(t *testing.T) {
	train, _ := tinyData(t)
	src, err := NewDatasetSource(train, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, patience := range []int{1, 2} {
		t.Run(fmt.Sprintf("patience %d", patience), func(t *testing.T) {
			trainer, err := NewTrainer(detModel(t, train), src,
				WithEpochs(50),
				WithEarlyStopping(patience, 1e9)) // nothing improves by 1e9
			if err != nil {
				t.Fatal(err)
			}
			rep, err := trainer.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != StopEarly || rep.Epochs != patience+1 {
				t.Fatalf("report %+v, want early-stop after %d epochs", rep, patience+1)
			}
		})
	}
}

// TestTrainerSyntheticSource: the generator source streams fresh samples
// every pass without a materialized dataset.
func TestTrainerSyntheticSource(t *testing.T) {
	src, err := NewSyntheticSource("amazon", 1e-9, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(src.Features(), 16, src.NumLabels(),
		WithDWTA(3, 8), WithLearningRate(1e-3), WithWorkers(1), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewTrainer(m, src, WithEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 2 || rep.Steps == 0 || m.Steps() != rep.Steps {
		t.Fatalf("synthetic session report %+v (model steps %d)", rep, m.Steps())
	}

	if _, err := NewSyntheticSource("nope", 0.01, 64, 1); err == nil {
		t.Error("unknown synthetic workload accepted")
	}
}

// funcSource is a caller-implemented DataSource: batches built with
// NewBatch, one fixed batch per pass.
type funcSource struct {
	features, labels int
	samples          []Sample
	done             bool
}

func (f *funcSource) Name() string       { return "custom" }
func (f *funcSource) Features() int      { return f.features }
func (f *funcSource) NumLabels() int     { return f.labels }
func (f *funcSource) Reset(uint64) error { f.done = false; return nil }

func (f *funcSource) Next() (Batch, error) {
	if f.done {
		return Batch{}, io.EOF
	}
	f.done = true
	return NewBatch(f.samples)
}

// TestTrainerCustomSource: user-implemented DataSources train through the
// validating adapter, and invalid data surfaces as ErrBadSample instead of
// a kernel panic.
func TestTrainerCustomSource(t *testing.T) {
	m, err := New(100, 8, 20, WithDWTA(2, 6), WithWorkers(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	good := &funcSource{features: 100, labels: 20, samples: []Sample{
		{Indices: []int32{3, 50}, Values: []float32{1, 0.5}, Labels: []int32{7}},
		{Indices: []int32{10}, Values: []float32{2}, Labels: []int32{1, 2}},
	}}
	trainer, err := NewTrainer(m, good, WithEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 2 {
		t.Fatalf("custom source ran %d steps, want 2", rep.Steps)
	}

	// Out-of-range feature index: structurally valid (NewBatch accepts it),
	// rejected against the model at the Trainer boundary.
	bad := &funcSource{features: 100, labels: 20, samples: []Sample{
		{Indices: []int32{3}, Values: []float32{1}, Labels: []int32{7}},
		{Indices: []int32{500}, Values: []float32{1}, Labels: []int32{7}},
	}}
	trainer, err = NewTrainer(m, bad, WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = trainer.Run(context.Background())
	if !errorsIsBadSample(err, 1) {
		t.Fatalf("out-of-range feature: got %v, want BadSampleError{Sample: 1}", err)
	}

	// Out-of-range label.
	bad = &funcSource{features: 100, labels: 20, samples: []Sample{
		{Indices: []int32{3}, Values: []float32{1}, Labels: []int32{21}},
	}}
	trainer, err = NewTrainer(m, bad, WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = trainer.Run(context.Background())
	if !errorsIsBadSample(err, 0) {
		t.Fatalf("out-of-range label: got %v, want BadSampleError{Sample: 0}", err)
	}
}

// closeSource is a funcSource that holds a resource: it counts its Close
// calls.
type closeSource struct {
	funcSource
	closes int
}

func (c *closeSource) Close() error { c.closes++; return nil }

// TestTrainerClosesUserSource: a user DataSource that implements io.Closer
// is closed exactly once per Run, whether the Run completes its passes, is
// canceled, or fails mid-pass on a bad sample.
func TestTrainerClosesUserSource(t *testing.T) {
	good := []Sample{{Indices: []int32{3, 50}, Values: []float32{1, 0.5}, Labels: []int32{7}}}
	bad := []Sample{{Indices: []int32{500}, Values: []float32{1}, Labels: []int32{7}}}
	for _, tc := range []struct {
		name    string
		samples []Sample
		epochs  int
		cancel  bool
		reason  StopReason // want, when the sample is good
	}{
		{"completed", good, 2, false, StopCompleted},
		{"canceled", good, 0, true, StopCanceled},
		{"bad_sample", bad, 1, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(100, 8, 20, WithDWTA(2, 6), WithWorkers(1), WithSeed(4))
			if err != nil {
				t.Fatal(err)
			}
			src := &closeSource{funcSource: funcSource{features: 100, labels: 20, samples: tc.samples}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := []TrainerOption{WithEpochs(tc.epochs)}
			if tc.cancel {
				opts = append(opts, WithOnBatch(func(BatchEvent) { cancel() }))
			}
			trainer, err := NewTrainer(m, src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := trainer.Run(ctx)
			if tc.name == "bad_sample" {
				if !errorsIsBadSample(err, 0) {
					t.Fatalf("got %v, want BadSampleError{Sample: 0}", err)
				}
			} else if err != nil || rep.Reason != tc.reason {
				t.Fatalf("Run = %v, %v; want %v, nil", rep.Reason, err, tc.reason)
			}
			if src.closes != 1 {
				t.Errorf("source closed %d times, want 1", src.closes)
			}
		})
	}
}

// emptySource is a user DataSource whose Next returns the zero Batch and no
// error.
type emptySource struct{ funcSource }

func (*emptySource) Next() (Batch, error) { return Batch{}, nil }

// TestTrainerRejectsEmptyUserBatch: a zero Batch from a user source is an
// error naming the mistake, not a panic or a step.
func TestTrainerRejectsEmptyUserBatch(t *testing.T) {
	m, err := New(100, 8, 20, WithDWTA(2, 6), WithWorkers(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewTrainer(m, &emptySource{funcSource{features: 100, labels: 20}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "returned an empty batch") {
		t.Fatalf("Run error = %v, want the empty-batch error", err)
	}
	if rep.Steps != 0 || m.Steps() != 0 {
		t.Fatalf("trained %d steps (model at %d) on an empty batch", rep.Steps, m.Steps())
	}
}

// TestNewTrainerValidation: configuration errors surface at construction.
func TestNewTrainerValidation(t *testing.T) {
	train, _ := tinyData(t)
	m := detModel(t, train)
	src, err := NewDatasetSource(train, 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]TrainerOption{
		"negative epochs":        {WithEpochs(-1)},
		"negative max steps":     {WithMaxSteps(-1)},
		"checkpoint no interval": {WithCheckpoints("x", 0)},
		"checkpoint no path":     {WithCheckpoints("", 5)},
		"retain no checkpoints":  {WithCheckpointRetain(3)},
		"snapshots no publish":   {WithSnapshots(5, nil)},
		"negative early stop":    {WithEarlyStopping(-1, 0)},
		"negative min delta":     {WithEarlyStopping(1, -0.5)},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewTrainer(m, src, opts...); err == nil {
				t.Error("accepted")
			}
		})
	}
	if _, err := NewTrainer(nil, src); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewTrainer(m, nil); err == nil {
		t.Error("nil source accepted")
	}
	// Dimension mismatch: source wider than the model.
	wide := &funcSource{features: 10_000, labels: 20}
	if _, err := NewTrainer(m, wide); err == nil {
		t.Error("source wider than model accepted")
	}

	// A source without BatchesPerEpoch cannot place a resume: Run would
	// fail, so NewTrainer must. At step 0 there is nothing to skip.
	unsized := &funcSource{features: train.Features(), labels: train.NumLabels(),
		samples: []Sample{train.Sample(0), train.Sample(1)}}
	if _, err := NewTrainer(m, unsized, WithResume()); err != nil {
		t.Errorf("resume at step 0 over an unsized source rejected: %v", err)
	}
	ckpt := filepath.Join(t.TempDir(), "ck.slide")
	if _, err := NewTrainer(m, unsized, WithCheckpoints(ckpt, 1), WithAutoRollback(1, 0.5)); err == nil {
		t.Error("auto-rollback over an unsized source accepted")
	}
	if _, err := m.TrainBatch(unsized.samples); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(m, unsized, WithResume()); err == nil {
		t.Error("resume at step 1 over an unsized source accepted")
	}
	if _, err := NewTrainer(m, src, WithResume()); err != nil {
		t.Errorf("resume at step 1 over a sized source rejected: %v", err)
	}
}
