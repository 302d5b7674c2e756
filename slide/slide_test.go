package slide

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func tinyData(t *testing.T) (*Dataset, *Dataset) {
	t.Helper()
	train, test, err := AmazonLike(1e-9, 3) // floor sizes
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// trainEpoch runs one shuffled epoch of train in batches of batch as a
// one-epoch Trainer session and returns its statistics.
func trainEpoch(m *Model, train *Dataset, batch int) (TrainStats, error) {
	src, err := NewDatasetSource(train, batch)
	if err != nil {
		return TrainStats{}, err
	}
	tr, err := NewTrainer(m, src, WithEpochs(1))
	if err != nil {
		return TrainStats{}, err
	}
	rep, err := tr.Run(context.Background())
	return rep.Stats, err
}

func TestPublicEndToEnd(t *testing.T) {
	train, test := tinyData(t)
	m, err := New(train.Features(), 32, train.NumLabels(),
		WithDWTA(3, 10),
		WithLearningRate(0.01),
		WithWorkers(2),
		WithShards(2),
		WithActiveSet(16, 0),
		WithRebuildSchedule(10, 1.2),
		WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var last TrainStats
	for epoch := 0; epoch < 6; epoch++ {
		st, err := trainEpoch(m, train, 64)
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != train.Len() {
			t.Fatalf("epoch processed %d of %d samples", st.Samples, train.Len())
		}
		last = st
	}
	if last.MeanActive <= 0 || last.ActiveFraction(train.NumLabels()) > 1 {
		t.Errorf("stats wrong: %+v", last)
	}
	p1, err := m.Evaluate(test, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 < 0.1 { // chance is 1/64
		t.Errorf("model failed to learn through public API: P@1 = %.3f", p1)
	}
	if m.Steps() == 0 {
		t.Error("Steps not counted")
	}

	s := test.Sample(0)
	pred, err := m.Predict(s.Indices, s.Values, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 3 {
		t.Errorf("Predict returned %v", pred)
	}
	scores := make([]float32, train.NumLabels())
	if err := m.Scores(s.Indices, s.Values, scores); err != nil {
		t.Fatal(err)
	}
	if scores[pred[0]] < scores[pred[1]] {
		t.Error("Predict order inconsistent with Scores")
	}
}

func TestFullSoftmaxOption(t *testing.T) {
	train, _ := tinyData(t)
	m, err := New(train.Features(), 16, train.NumLabels(),
		WithFullSoftmax(), WithWorkers(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := trainEpoch(m, train.Head(64), 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanActive != float64(train.NumLabels()) {
		t.Errorf("full softmax MeanActive = %g, want %d", st.MeanActive, train.NumLabels())
	}
}

func TestOptionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config end-to-end training; skipped in -short (race CI)")
	}
	train, _ := tinyData(t)
	for name, opt := range map[string]Option{
		"simhash":    WithSimHash(4, 8),
		"bf16act":    WithPrecision(BF16Activations),
		"bf16full":   WithPrecision(BF16Full),
		"fp32":       WithPrecision(FP32),
		"fragmented": WithMemoryLayout(Fragmented),
		"coalesced":  WithMemoryLayout(Coalesced),
		"adam":       WithAdam(0.9, 0.99, 1e-7),
		"buckets":    WithBuckets(64, Reservoir),
		"linear":     WithLinearHidden(),
	} {
		m, err := New(train.Features(), 8, train.NumLabels(), opt,
			WithWorkers(1), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := trainEpoch(m, train.Head(32), 16); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestNewFeatures(t *testing.T) {
	train, test := tinyData(t)

	// Deep hidden stack through the public API.
	deep, err := New(train.Features(), 24, train.NumLabels(),
		WithHiddenStack(16, 12),
		WithDWTA(3, 8), WithLearningRate(0.01), WithWorkers(1), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := trainEpoch(deep, train, 64); err != nil {
			t.Fatal(err)
		}
	}
	if p1, _ := deep.Evaluate(test, 100, 1); p1 < 0.05 {
		t.Errorf("deep model did not learn at all: P@1 = %.3f", p1)
	}

	// Sampled inference on an LSH model.
	s := test.Sample(0)
	if _, err := deep.PredictSampled(s.Indices, s.Values, 2); err != nil {
		t.Fatal(err)
	}
	// ... and a clean error on a dense model.
	dense, err := New(train.Features(), 8, train.NumLabels(),
		WithFullSoftmax(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dense.PredictSampled(s.Indices, s.Values, 1); err == nil {
		t.Error("PredictSampled on dense model should error")
	}

	// The uniform-sampling ablation constructs and trains.
	uniform, err := New(train.Features(), 8, train.NumLabels(), WithUniformSampling(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainEpoch(uniform, train.Head(64), 32); err != nil {
		t.Fatal(err)
	}

	// Deep checkpoints round-trip through the public API.
	path := t.TempDir() + "/deep.slide"
	if err := deep.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := deep.Predict(s.Indices, s.Values, 1)
	b, _ := back.Predict(s.Indices, s.Values, 1)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("deep model predictions changed after reload: %v vs %v", a, b)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 8, 10); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := New(10, 8, 10, WithDWTA(0, 0)); err == nil {
		t.Error("zero K/L accepted")
	}
}

func TestTrainBatchErrors(t *testing.T) {
	train, _ := tinyData(t)
	m, err := New(train.Features(), 8, train.NumLabels(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(nil); err != ErrEmptyBatch {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := m.TrainBatch([]Sample{{Indices: []int32{1, 2}, Values: []float32{1}}}); err == nil {
		t.Error("mismatched sample accepted")
	}
	if _, err := NewDatasetSource(nil, 8); err != ErrEmptyBatch {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := NewDatasetSource(train, 0); err == nil {
		t.Error("zero batch size accepted")
	}
	if _, err := m.Evaluate(nil, 5, 1); err != ErrEmptyBatch {
		t.Error("nil eval dataset accepted")
	}
}

func TestTrainBatchDirect(t *testing.T) {
	m, err := New(100, 8, 20, WithDWTA(2, 6), WithWorkers(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.TrainBatch([]Sample{
		{Indices: []int32{3, 50}, Values: []float32{1, 0.5}, Labels: []int32{7}},
		{Indices: []int32{10}, Values: []float32{2}, Labels: []int32{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 2 || st.MeanActive <= 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEmbedding(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding training loop; skipped in -short (race CI)")
	}
	m, err := New(50, 12, 10, WithLinearHidden(), WithWorkers(1), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	e := m.Embedding(7)
	if len(e) != 12 {
		t.Fatalf("embedding length %d", len(e))
	}
	// Must be a copy: mutating it must not affect the model.
	e[0] += 100
	if m.Embedding(7)[0] == e[0] {
		t.Error("Embedding returned a live view")
	}
	// A feature id outside [0, InputDim) is refused with nil, not a panic.
	for _, bad := range []int{-1, 50, 55} {
		if e := m.Embedding(bad); e != nil {
			t.Errorf("Embedding(%d) = %v, want nil", bad, e)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	train, test := tinyData(t)
	m, err := New(train.Features(), 16, train.NumLabels(),
		WithDWTA(3, 8), WithLearningRate(0.01), WithWorkers(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := trainEpoch(m, train, 64); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/model.slide"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Steps() != m.Steps() {
		t.Errorf("steps %d != %d", back.Steps(), m.Steps())
	}
	// Identical predictions after round trip.
	s := test.Sample(0)
	a, _ := m.Predict(s.Indices, s.Values, 3)
	b, _ := back.Predict(s.Indices, s.Values, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction changed after reload: %v vs %v", a, b)
		}
	}
	// Resumed training must work.
	if _, err := trainEpoch(back, train, 64); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadFile("/nonexistent/model.slide"); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestKernelModeSwitch(t *testing.T) {
	SetKernelMode(ScalarKernels)
	SetKernelMode(VectorKernels) // restore default; no crash = pass
}

func TestReadCorpus(t *testing.T) {
	text := strings.Repeat("alpha beta gamma beta alpha ", 50)
	ds, vocab, err := ReadCorpus("toy", strings.NewReader(text), CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Size() != 3 {
		t.Fatalf("vocab size %d", vocab.Size())
	}
	if vocab.Word(0) != "alpha" && vocab.Word(0) != "beta" {
		t.Errorf("top word %q", vocab.Word(0))
	}
	if id, ok := vocab.ID("beta"); !ok || vocab.Count(id) != 100 {
		t.Errorf("beta count wrong")
	}
	if ds.Features() != 3 || ds.Len() == 0 {
		t.Errorf("dataset shape %d/%d", ds.Features(), ds.Len())
	}

	// Train a tiny word2vec on it through the public API.
	m, err := New(ds.Features(), 8, ds.NumLabels(),
		WithSimHash(3, 6), WithLinearHidden(), WithLearningRate(0.05),
		WithWorkers(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := trainEpoch(m, ds, 64); err != nil {
			t.Fatal(err)
		}
	}
	if p1, _ := m.Evaluate(ds, 100, 1); p1 < 0.3 {
		t.Errorf("corpus word2vec failed to learn: P@1 = %.3f", p1)
	}

	if _, _, err := OpenCorpus("/nonexistent/corpus.txt", CorpusOptions{}); err == nil {
		t.Error("missing corpus accepted")
	}
	if _, _, err := ReadCorpus("x", strings.NewReader(""), CorpusOptions{}); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestDatasetHelpers(t *testing.T) {
	train, test := tinyData(t)
	if train.Name() == "" || train.Len() == 0 || test.Len() == 0 {
		t.Fatal("generation produced empty datasets")
	}
	st := train.Stats()
	if st.Features != train.Features() || st.Samples != train.Len() {
		t.Errorf("stats mismatch: %+v", st)
	}
	if train.ModelParams(16) <= 0 {
		t.Error("ModelParams not positive")
	}

	// XMC round trip through the public API.
	var buf bytes.Buffer
	if err := train.WriteXMC(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXMC("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != train.Len() {
		t.Errorf("round trip %d != %d", back.Len(), train.Len())
	}

	if _, err := OpenXMC("/nonexistent/file.txt"); err == nil {
		t.Error("OpenXMC of missing file should error")
	}

	// Other generators.
	if tr, te, err := WikiLike(1e-9, 1); err != nil || tr.Len() == 0 || te.Len() == 0 {
		t.Errorf("WikiLike: %v", err)
	}
	if tr, te, err := Text8Like(1e-9, 1); err != nil || tr.Len() == 0 || te.Len() == 0 {
		t.Errorf("Text8Like: %v", err)
	}
}
