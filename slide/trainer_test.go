package slide

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
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
// the internal iterator, exactly as the old implementation drove it).
func TestTrainerMatchesLegacyEpochLoop(t *testing.T) {
	train, _ := tinyData(t)
	const batch, epochs = 64, 3

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
	if !bytes.Equal(modelBytes(t, legacy), modelBytes(t, viaTrainer)) {
		t.Fatal("Trainer weights differ from the legacy epoch loop")
	}
	if lastEpoch.Stats.MeanLoss != legacyStats.MeanLoss ||
		lastEpoch.Stats.MeanActive != legacyStats.MeanActive {
		t.Fatalf("epoch stats %+v differ from legacy %+v", lastEpoch.Stats, legacyStats)
	}
}

// TestTrainerResumeBitIdentical is the public resume contract: train N steps
// with a checkpoint scheduled at N, load it, continue to N+M with
// WithResume — bit-identical to an uninterrupted N+M session.
func TestTrainerResumeBitIdentical(t *testing.T) {
	train, _ := tinyData(t)
	const batch = 64
	src, err := NewDatasetSource(train, batch)
	if err != nil {
		t.Fatal(err)
	}
	bpe := (train.Len() + batch - 1) / batch
	n := int64(bpe + max(bpe/2, 1)) // lands mid-epoch
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
}

// TestTrainerStreamingFileSource: an end-to-end session from a streaming
// XMC file — sequential order trains bit-identically to feeding the file's
// samples in order, cancellation is graceful, and the final checkpoint loads.
func TestTrainerStreamingFileSource(t *testing.T) {
	train, _ := tinyData(t)
	path := filepath.Join(t.TempDir(), "train.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := train.WriteXMC(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
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

	// Cancellation mid-stream is graceful and leaves a loadable checkpoint.
	ckpt := filepath.Join(t.TempDir(), "stream.slide")
	m2 := detModel(t, train)
	ctx, cancel := context.WithCancel(context.Background())
	canceled, err := NewTrainer(m2, src,
		WithEpochs(0), // unbounded
		WithCheckpoints(ckpt, 1000),
		WithOnBatch(func(e BatchEvent) {
			if e.Step == 5 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = canceled.Run(ctx)
	if err != nil {
		t.Fatalf("cancellation must be graceful, got %v", err)
	}
	if rep.Reason != StopCanceled || rep.Steps != 5 {
		t.Fatalf("report %+v, want canceled after 5 steps", rep)
	}
	back, err := LoadFile(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint unloadable: %v", err)
	}
	if back.Steps() != 5 {
		t.Fatalf("checkpoint at step %d, want 5", back.Steps())
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

// TestTrainerEarlyStopping: a session that cannot improve stops early.
func TestTrainerEarlyStopping(t *testing.T) {
	train, _ := tinyData(t)
	m := detModel(t, train)
	src, err := NewDatasetSource(train, 64)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewTrainer(m, src,
		WithEpochs(50),
		WithEarlyStopping(2, 1e9)) // nothing improves by 1e9
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trainer.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopEarly || rep.Epochs != 3 {
		t.Fatalf("report %+v, want early-stop after 3 epochs", rep)
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
		"snapshots no publish":   {WithSnapshots(5, nil)},
		"negative early stop":    {WithEarlyStopping(-1, 0)},
	} {
		if _, err := NewTrainer(m, src, opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
}
