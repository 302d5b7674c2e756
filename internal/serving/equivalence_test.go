package serving

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/slide-cpu/slide/slide"
)

// trainedPredictor trains a tiny model through the public API and snapshots
// it. Single-worker training keeps it deterministic and race-detector clean.
func trainedPredictor(t testing.TB, seed uint64, opts ...slide.Option) (*slide.Predictor, *slide.Dataset) {
	t.Helper()
	train, test, err := slide.AmazonLike(1e-9, seed)
	if err != nil {
		t.Fatal(err)
	}
	base := []slide.Option{
		slide.WithLearningRate(0.01),
		slide.WithWorkers(1),
		slide.WithSeed(seed),
	}
	m, err := slide.New(train.Features(), 16, train.NumLabels(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := trainEpoch(m, train, 64); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot(), test
}

// TestBatcherBitIdenticalToDirectPredict is the serving equivalence
// contract: a response served through the micro-batcher — whatever batch it
// happened to coalesce into, whatever per-request k its neighbors used — is
// bit-identical to calling Predictor.Predict directly, for every
// Precision × MemoryLayout combination.
func TestBatcherBitIdenticalToDirectPredict(t *testing.T) {
	precisions := map[string]slide.Option{
		"fp32":     slide.WithPrecision(slide.FP32),
		"bf16act":  slide.WithPrecision(slide.BF16Activations),
		"bf16full": slide.WithPrecision(slide.BF16Full),
	}
	layouts := map[string]slide.Option{
		"coalesced":  slide.WithMemoryLayout(slide.Coalesced),
		"fragmented": slide.WithMemoryLayout(slide.Fragmented),
	}
	for pname, popt := range precisions {
		for lname, lopt := range layouts {
			t.Run(fmt.Sprintf("%s/%s", pname, lname), func(t *testing.T) {
				pred, test := trainedPredictor(t, 11, popt, lopt, slide.WithDWTA(3, 8))
				mgr := NewSnapshotManager(pred)
				b := NewBatcher(mgr, Config{Workers: 2, MaxBatch: 8, QueueCap: 256})
				defer b.Close()

				maxK := min(6, pred.NumLabels())
				const n = 48
				var wg sync.WaitGroup
				results := make([]Result, n)
				errs := make([]error, n)
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						s := test.Sample(i % test.Len())
						k := 1 + i%maxK // mixed per-request k within coalesced batches
						results[i], errs[i] = b.Submit(context.Background(),
							slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: k})
					}(i)
				}
				wg.Wait()

				for i := 0; i < n; i++ {
					if errs[i] != nil {
						t.Fatalf("request %d: %v", i, errs[i])
					}
					s := test.Sample(i % test.Len())
					k := 1 + i%maxK
					want := pred.Predict(s.Indices, s.Values, k)
					if len(results[i].Labels) != len(want) {
						t.Fatalf("request %d (k=%d): batched %v, direct %v", i, k, results[i].Labels, want)
					}
					for j := range want {
						if results[i].Labels[j] != want[j] {
							t.Fatalf("request %d (k=%d): batched %v, direct %v — not bit-identical",
								i, k, results[i].Labels, want)
						}
					}
					if results[i].Version != pred.Version() {
						t.Errorf("request %d served by version %d, want %d", i, results[i].Version, pred.Version())
					}
				}
				// The concurrent submissions actually coalesced (the
				// equivalence claim is vacuous for all-singleton batches).
				if st := b.Stats(); st.MeanBatch <= 1 {
					t.Logf("note: no coalescing occurred (mean batch %.2f over %d batches)", st.MeanBatch, st.Batches)
				}
			})
		}
	}
}

// TestPredictEntriesMatchesPredict pins the slide-level primitive the
// batcher relies on, including k clamping at the label-space bound.
func TestPredictEntriesMatchesPredict(t *testing.T) {
	pred, test := trainedPredictor(t, 13, slide.WithDWTA(3, 8))
	n := 12
	entries := make([]slide.BatchEntry, n)
	for i := range entries {
		s := test.Sample(i % test.Len())
		entries[i] = slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: 1 + i%pred.NumLabels()}
	}
	// One entry asks for more labels than exist: clamped like Predict.
	entries[n-1].K = pred.NumLabels() + 5
	out, err := pred.PredictEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		want := pred.Predict(e.Indices, e.Values, e.K)
		if len(out[i]) != len(want) {
			t.Fatalf("entry %d (k=%d): %v vs %v", i, e.K, out[i], want)
		}
		for j := range want {
			if out[i][j] != want[j] {
				t.Fatalf("entry %d (k=%d): %v vs %v", i, e.K, out[i], want)
			}
		}
	}

	// Invalid entries error instead of serving garbage.
	if _, err := pred.PredictEntries([]slide.BatchEntry{{Indices: []int32{1}, Values: []float32{1}, K: 0}}); err == nil {
		t.Error("k=0 entry did not error")
	}
	if _, err := pred.PredictEntries([]slide.BatchEntry{{Indices: []int32{1, 2}, Values: []float32{1}, K: 1}}); err == nil {
		t.Error("mismatched lengths did not error")
	}
}
