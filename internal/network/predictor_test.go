package network

import (
	"errors"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/sparse"
)

func snapNet(t *testing.T, seed uint64, opts func(*Config)) (*Network, *plantedProblem) {
	t.Helper()
	p := newPlanted(80, 25, 6, seed)
	cfg := Config{
		InputDim: 80, HiddenDim: 24, OutputDim: 25,
		Hash: DWTA, K: 2, L: 10, BucketCap: 32,
		MinActive: 8, LR: 0.01, Workers: 2, Locked: true,
		RebuildEvery: 20, Seed: seed,
	}
	if opts != nil {
		opts(&cfg)
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 60, 64)
	return n, p
}

func TestPredictorMatchesNetworkExactly(t *testing.T) {
	for name, opts := range map[string]func(*Config){
		"fp32":     nil,
		"bf16both": func(c *Config) { c.Precision = layer.BF16Both; c.Workers = 1; c.Locked = false },
		"deep":     func(c *Config) { c.HiddenLayers = []int{16} },
		"dense":    func(c *Config) { c.NoSampling = true; c.Hash = 0; c.K, c.L = 0, 0 },
	} {
		t.Run(name, func(t *testing.T) {
			n, p := snapNet(t, 51, opts)
			pred := n.Snapshot()
			eval := p.batch(40)
			scores := make([]float32, n.Config().OutputDim)
			snapScores := make([]float32, n.Config().OutputDim)
			for i := 0; i < eval.Len(); i++ {
				x := eval.Sample(i)
				// Top-k output must be bit-identical to the frozen network.
				a := n.Predict(x, 5)
				n.Scores(x, scores)
				b := pred.Predict(x, 5)
				if len(a) != len(b) {
					t.Fatalf("sample %d: Predict lengths %d vs %d", i, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("sample %d: Predict diverged: %v vs %v", i, a, b)
					}
				}
				// Raw logits are bit-identical too.
				pred.Scores(x, snapScores)
				for j := range scores {
					if scores[j] != snapScores[j] {
						t.Fatalf("sample %d: score[%d] = %g vs %g", i, j, scores[j], snapScores[j])
					}
				}
			}
		})
	}
}

func TestPredictorBatchMatchesSingle(t *testing.T) {
	n, p := snapNet(t, 53, nil)
	pred := n.Snapshot()
	eval := p.batch(30)
	xs := make([]sparse.Vector, eval.Len())
	for i := range xs {
		xs[i] = eval.Sample(i)
	}
	batch := pred.PredictBatch(xs, 3)
	for i, x := range xs {
		single := pred.Predict(x, 3)
		if len(batch[i]) != len(single) {
			t.Fatalf("sample %d: batch %v vs single %v", i, batch[i], single)
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("sample %d: batch %v vs single %v", i, batch[i], single)
			}
		}
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	n, p := snapNet(t, 57, nil)
	pred := n.Snapshot()
	eval := p.batch(20)

	before := make([][]int32, eval.Len())
	beforeScores := make([][]float32, eval.Len())
	for i := range before {
		before[i] = pred.Predict(eval.Sample(i), 3)
		s := make([]float32, n.Config().OutputDim)
		pred.Scores(eval.Sample(i), s)
		beforeScores[i] = s
	}

	// Keep training (and rebuilding tables) on the source network.
	trainN(t, n, p, 40, 64)

	s := make([]float32, n.Config().OutputDim)
	for i := range before {
		after := pred.Predict(eval.Sample(i), 3)
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("sample %d: snapshot predictions drifted after training: %v vs %v",
					i, after, before[i])
			}
		}
		pred.Scores(eval.Sample(i), s)
		for j := range s {
			if s[j] != beforeScores[i][j] {
				t.Fatalf("sample %d: snapshot scores drifted after training", i)
			}
		}
		// Sampled inference still runs against the cloned tables.
		if _, err := pred.PredictSampled(eval.Sample(i), 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPredictorSampledError(t *testing.T) {
	cfg := Config{InputDim: 10, HiddenDim: 4, OutputDim: 8, NoSampling: true, Workers: 1}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred := n.Snapshot()
	if pred.Sampled() {
		t.Error("dense snapshot claims LSH tables")
	}
	x := sparse.Vector{Indices: []int32{1}, Values: []float32{1}}
	if _, err := pred.PredictSampled(x, 1); !errors.Is(err, ErrNoSampling) {
		t.Errorf("PredictSampled error = %v, want ErrNoSampling", err)
	}
	// Fallback to exact on the same predictor works.
	if got := pred.Predict(x, 2); len(got) != 2 {
		t.Errorf("exact fallback returned %v", got)
	}
}

func TestPredictorPrecisionAtK(t *testing.T) {
	n, p := snapNet(t, 59, nil)
	pred := n.Snapshot()
	eval := p.batch(50)
	scores := make([]float32, n.Config().OutputDim)
	var a float64
	for i := 0; i < eval.Len(); i++ {
		n.Scores(eval.Sample(i), scores)
		a += precisionRef(scores, eval.Labels(i))
	}
	a /= float64(eval.Len())
	if b := pred.Evaluate(eval, eval.Len(), 1); a != b {
		t.Errorf("parallel-eval building block diverged: %.6f vs %.6f", b, a)
	}
}

// precisionRef is P@1 computed directly from the score argmax.
func precisionRef(scores []float32, labels []int32) float64 {
	best := int32(0)
	for i, s := range scores {
		if s > scores[best] {
			best = int32(i)
		}
	}
	for _, y := range labels {
		if y == best {
			return 1
		}
	}
	return 0
}

func TestPredictorBatchKMatchesSingle(t *testing.T) {
	for name, opts := range map[string]func(*Config){
		"fp32":     nil,
		"bf16act":  func(c *Config) { c.Precision = layer.BF16Act; c.Workers = 1; c.Locked = false },
		"bf16both": func(c *Config) { c.Precision = layer.BF16Both; c.Workers = 1; c.Locked = false },
		"deep":     func(c *Config) { c.HiddenLayers = []int{16} },
	} {
		t.Run(name, func(t *testing.T) {
			n, p := snapNet(t, 61, opts)
			pred := n.Snapshot()
			eval := p.batch(24)
			xs := make([]sparse.Vector, eval.Len())
			ks := make([]int, eval.Len())
			for i := range xs {
				xs[i] = eval.Sample(i)
				ks[i] = 1 + i%7 // mixed per-sample k inside one fused walk
			}
			batch := pred.PredictBatchK(xs, ks)
			for i, x := range xs {
				single := pred.Predict(x, ks[i])
				if len(batch[i]) != len(single) {
					t.Fatalf("sample %d (k=%d): batch %v vs single %v", i, ks[i], batch[i], single)
				}
				for j := range single {
					if batch[i][j] != single[j] {
						t.Fatalf("sample %d (k=%d): batch %v vs single %v", i, ks[i], batch[i], single)
					}
				}
			}
			// Degenerate shapes.
			if out := pred.PredictBatchK(nil, nil); len(out) != 0 {
				t.Errorf("empty batch returned %v", out)
			}
			if out := pred.PredictBatchK(xs[:1], []int{eval.Len() + 999}); len(out[0]) != n.Config().OutputDim {
				t.Errorf("oversized k not clamped: %d labels", len(out[0]))
			}
		})
	}
}

func TestPredictorSteps(t *testing.T) {
	n, _ := snapNet(t, 63, nil)
	pred := n.Snapshot()
	if pred.Steps() != n.Step() {
		t.Errorf("snapshot Steps() = %d, network at %d", pred.Steps(), n.Step())
	}
}

// TestPredictorBatchKChunking covers batches beyond the fused-chunk memory
// bound: the walk splits into chunks, results stay bit-identical.
func TestPredictorBatchKChunking(t *testing.T) {
	n, p := snapNet(t, 67, nil)
	pred := n.Snapshot()
	eval := p.batch(10)
	total := fusedChunk*2 + 7 // three chunks, last partial
	xs := make([]sparse.Vector, total)
	ks := make([]int, total)
	for i := range xs {
		xs[i] = eval.Sample(i % eval.Len())
		ks[i] = 1 + i%5
	}
	batch := pred.PredictBatchK(xs, ks)
	for i, x := range xs {
		single := pred.Predict(x, ks[i])
		if len(batch[i]) != len(single) {
			t.Fatalf("sample %d: chunked batch %v vs single %v", i, batch[i], single)
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("sample %d: chunked batch %v vs single %v", i, batch[i], single)
			}
		}
	}
}
