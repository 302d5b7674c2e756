package slide

import (
	"fmt"
	"sync"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// TestPredictorConcurrentWithTraining is the serving-API acceptance test:
// snapshot mid-training, then hammer the Predictor from 8+ goroutines
// (Predict, PredictBatch, PredictSampled, Evaluate) while TrainBatch keeps
// running — and re-snapshotting — on the source model. Run under -race this
// proves the snapshot shares no mutable state with training. The model trains
// on the phase engine, whose workers own disjoint rows, so training itself is
// race-clean too (HOGWILD's races on shared rows are by design).
func TestPredictorConcurrentWithTraining(t *testing.T) {
	train, test, err := AmazonLike(1e-9, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(train.Features(), 16, train.NumLabels(),
		WithDWTA(2, 6),
		WithLearningRate(0.01),
		WithWorkers(2),
		WithShards(2),
		WithRebuildSchedule(5, 1.0), // rebuild often: stress table cloning
		WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainEpoch(m, train, 64); err != nil {
		t.Fatal(err)
	}
	p := m.Snapshot()

	stop := make(chan struct{})
	trainerDone := make(chan error, 1)
	go func() {
		// Trainer: keeps stepping the model and periodically takes fresh
		// snapshots (Snapshot and TrainBatch stay on one goroutine — that is
		// the documented contract; the *serving* side is what scales out).
		for i := 0; ; i++ {
			select {
			case <-stop:
				trainerDone <- nil
				return
			default:
			}
			if _, err := trainEpoch(m, train.Head(128), 64); err != nil {
				trainerDone <- err
				return
			}
			if i%2 == 1 {
				fresh := m.Snapshot()
				s := test.Sample(i % test.Len())
				if got := fresh.Predict(s.Indices, s.Values, 2); len(got) != 2 {
					trainerDone <- nil
					return
				}
			}
		}
	}()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				s := test.Sample((g*31 + iter) % test.Len())
				got := p.Predict(s.Indices, s.Values, 3)
				if len(got) != 3 {
					t.Errorf("goroutine %d: Predict returned %v", g, got)
					return
				}
				switch iter % 5 {
				case 0:
					batch := []Sample{s, test.Sample((g + iter + 1) % test.Len())}
					res, err := p.PredictBatch(batch, 2)
					if err != nil || len(res) != 2 {
						t.Errorf("goroutine %d: PredictBatch: %v %v", g, res, err)
						return
					}
				case 1:
					if _, err := p.PredictSampled(s.Indices, s.Values, 2); err != nil {
						t.Errorf("goroutine %d: PredictSampled: %v", g, err)
						return
					}
				case 2:
					if _, err := p.Evaluate(test.Head(16), 16, 1); err != nil {
						t.Errorf("goroutine %d: Evaluate: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-trainerDone; err != nil {
		t.Fatal(err)
	}
}

// TestPredictorEquivalence pins the compatibility contract on a frozen
// model: the snapshot path and the classic Model path produce bit-identical
// scores, top-k lists, and evaluation numbers.
func TestPredictorEquivalence(t *testing.T) {
	train, test, err := AmazonLike(1e-9, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(train.Features(), 24, train.NumLabels(),
		WithDWTA(3, 8), WithLearningRate(0.01), WithWorkers(2),
		WithShards(2), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := trainEpoch(m, train, 64); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Snapshot()
	if !p.Sampled() {
		t.Error("LSH snapshot claims no tables")
	}
	if p.NumLabels() != train.NumLabels() {
		t.Errorf("NumLabels = %d, want %d", p.NumLabels(), train.NumLabels())
	}

	mScores := make([]float32, train.NumLabels())
	pScores := make([]float32, train.NumLabels())
	samples := make([]Sample, 0, 32)
	for i := 0; i < min(32, test.Len()); i++ {
		s := test.Sample(i)
		samples = append(samples, s)
		a, err := m.Predict(s.Indices, s.Values, 5)
		if err != nil {
			t.Fatal(err)
		}
		b := p.Predict(s.Indices, s.Values, 5)
		if len(a) != len(b) {
			t.Fatalf("sample %d: lengths %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("sample %d: Predictor %v != Model %v", i, b, a)
			}
		}
		if err := m.Scores(s.Indices, s.Values, mScores); err != nil {
			t.Fatal(err)
		}
		p.Scores(s.Indices, s.Values, pScores)
		for j := range mScores {
			if mScores[j] != pScores[j] {
				t.Fatalf("sample %d: score[%d] %g != %g", i, j, pScores[j], mScores[j])
			}
		}
	}

	// Batch path agrees with the single path.
	batch, err := p.PredictBatch(samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		single := p.Predict(s.Indices, s.Values, 5)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("sample %d: batch %v != single %v", i, batch[i], single)
			}
		}
	}

	// Parallel evaluation returns exactly the sequential Model number.
	a, err := m.Evaluate(test, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Evaluate(test, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Evaluate: Predictor %.6f != Model %.6f", b, a)
	}
}

func TestPredictorErrors(t *testing.T) {
	train, _, err := AmazonLike(1e-9, 19)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(train.Features(), 8, train.NumLabels(),
		WithFullSoftmax(), WithWorkers(1), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	p := dense.Snapshot()
	s := train.Sample(0)
	if _, err := p.PredictSampled(s.Indices, s.Values, 1); err != ErrNoSampling {
		t.Errorf("PredictSampled on dense snapshot: %v, want ErrNoSampling", err)
	}
	// The documented fallback: callers that get ErrNoSampling use Predict.
	if got := p.Predict(s.Indices, s.Values, 2); len(got) != 2 {
		t.Errorf("fallback Predict returned %v", got)
	}
	if _, err := p.Evaluate(nil, 5, 1); err != ErrEmptyBatch {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := p.PredictBatch([]Sample{{Indices: []int32{1, 2}, Values: []float32{1}}}, 1); err == nil {
		t.Error("mismatched sample accepted")
	}
}

// TestPredictNonPositiveK: a non-positive k selects nothing — an empty list,
// never a panic — from the exact and the sampled path alike, on un-sharded
// and sharded models (whose per-shard ranking once sized a buffer with k),
// from f32 and int8 snapshots, for a single query and inside a chunk; the
// batch entry points keep rejecting it as a malformed entry.
func TestPredictNonPositiveK(t *testing.T) {
	train, _, err := AmazonLike(0.001, 29)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		opts := []Option{WithDWTA(3, 8), WithSeed(31), WithWorkers(1)} // one worker: HOGWILD races by design
		if shards > 0 {
			opts = append(opts, WithShards(shards))
		}
		m, err := New(train.Features(), 16, train.NumLabels(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trainEpoch(m, train.Head(128), 32); err != nil {
			t.Fatal(err)
		}
		f32 := m.Snapshot()
		int8, err := f32.Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		s := train.Sample(0)
		xs := []sparse.Vector{{Indices: s.Indices, Values: s.Values}, {Indices: s.Indices, Values: s.Values}}
		for name, p := range map[string]*Predictor{"f32": f32, "int8": int8} {
			for _, k := range []int{0, -1} {
				where := fmt.Sprintf("shards=%d %s k=%d", shards, name, k)
				if got := p.Predict(s.Indices, s.Values, k); len(got) != 0 {
					t.Errorf("%s: Predict returned %v, want nothing", where, got)
				}
				got, err := p.PredictSampled(s.Indices, s.Values, k)
				if err != nil || len(got) != 0 {
					t.Errorf("%s: PredictSampled returned %v, %v, want nothing", where, got, err)
				}
				// Inside a chunk, next to a positive k.
				if got := p.Raw().PredictBatchK(xs, []int{k, 2}); len(got[0]) != 0 || len(got[1]) != 2 {
					t.Errorf("%s: chunked walk returned %v, want nothing and two labels", where, got)
				}
				if _, err := p.PredictEntries([]BatchEntry{{Indices: s.Indices, Values: s.Values, K: k}}); err == nil {
					t.Errorf("%s: PredictEntries accepted the entry", where)
				}
				if _, err := p.PredictBatch([]Sample{s}, k); err == nil {
					t.Errorf("%s: PredictBatch accepted the batch", where)
				}
			}
		}
		if got, err := m.Predict(s.Indices, s.Values, -1); err != nil || len(got) != 0 {
			t.Errorf("shards=%d: Model.Predict(k=-1) returned %v, %v, want nothing", shards, got, err)
		}
	}
}
