package fullsoftmax

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// planted generates a small learnable problem (mirrors the network tests).
type planted struct {
	dim, classes, nnz int
	protos            [][]int32
	rng               *rand.Rand
}

func newPlanted(dim, classes, nnz int, seed uint64) *planted {
	p := &planted{dim: dim, classes: classes, nnz: nnz,
		rng: rand.New(rand.NewPCG(seed, 77))}
	p.protos = make([][]int32, classes)
	for c := range p.protos {
		used := map[int32]bool{}
		idx := make([]int32, 0, nnz)
		for len(idx) < nnz {
			i := int32(p.rng.IntN(dim))
			if !used[i] {
				used[i] = true
				idx = append(idx, i)
			}
		}
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		p.protos[c] = idx
	}
	return p
}

func (p *planted) batch(n int) sparse.Batch {
	var b sparse.Builder
	for i := 0; i < n; i++ {
		c := p.rng.IntN(p.classes)
		vals := make([]float32, p.nnz)
		for j := range vals {
			vals[j] = 1 + float32(p.rng.NormFloat64())*0.1
		}
		b.Add(p.protos[c], vals, []int32{int32(c)})
	}
	batch, err := b.CSR()
	if err != nil {
		panic(err)
	}
	return batch
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{InputDim: 0, HiddenDim: 1, OutputDim: 1},
		{InputDim: 1, HiddenDim: 0, OutputDim: 1},
		{InputDim: 1, HiddenDim: 1, OutputDim: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	c := Config{InputDim: 10, HiddenDim: 4, OutputDim: 5}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LR != 1e-4 || c.SampleChunk != 128 || c.Workers <= 0 {
		t.Error("defaults not applied")
	}
}

func TestDenseBaselineLearns(t *testing.T) {
	p := newPlanted(80, 20, 6, 1)
	cfg := Config{InputDim: 80, HiddenDim: 24, OutputDim: 20, LR: 0.01, Workers: 2, Seed: 5}
	tr, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i := 0; i < 80; i++ {
		st := tr.TrainBatch(p.batch(64))
		if st.Samples != 64 {
			t.Fatalf("samples %d", st.Samples)
		}
		mean := st.Loss / float64(st.Samples)
		if i == 0 {
			first = mean
		}
		last = mean
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first, last)
	}
	// Evaluate P@1.
	eval := p.batch(200)
	scores := make([]float32, 20)
	hits := 0.0
	for i := 0; i < eval.Len(); i++ {
		tr.Scores(eval.Sample(i), scores)
		hits += metrics.PrecisionAtK(scores, eval.Labels(i), 1)
	}
	if p1 := hits / float64(eval.Len()); p1 < 0.6 {
		t.Errorf("dense baseline failed to learn: P@1 = %.3f", p1)
	}
	if tr.Step() != 80 {
		t.Errorf("Step = %d", tr.Step())
	}
}

func TestChunkingInvariance(t *testing.T) {
	// With one worker the math is sequential per row, so the chunk size must
	// not change the result at all.
	mk := func(chunk int) *Trainer {
		cfg := Config{InputDim: 40, HiddenDim: 12, OutputDim: 15,
			LR: 0.01, Workers: 1, SampleChunk: chunk, Seed: 9}
		tr, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := mk(4)
	b := mk(64)
	pa := newPlanted(40, 15, 5, 2)
	pb := newPlanted(40, 15, 5, 2)
	for i := 0; i < 10; i++ {
		a.TrainBatch(pa.batch(32))
		b.TrainBatch(pb.batch(32))
	}
	x := newPlanted(40, 15, 5, 3).batch(1).Sample(0)
	sa := make([]float32, 15)
	sb := make([]float32, 15)
	a.Scores(x, sa)
	b.Scores(x, sb)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("chunk size changed results: score[%d] %g vs %g", i, sa[i], sb[i])
		}
	}
}

func TestScoresMatchManualForward(t *testing.T) {
	cfg := Config{InputDim: 30, HiddenDim: 10, OutputDim: 12, Workers: 2, Seed: 7}
	tr, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanted(30, 12, 4, 9)
	tr.TrainBatch(p.batch(16))

	x := p.batch(1).Sample(0)
	scores := make([]float32, 12)
	tr.Scores(x, scores)

	// Manual forward through the layer accessors.
	h := make([]float32, 10)
	tr.Hidden().Forward(simd.Active(), x, h)
	for id := int32(0); id < 12; id++ {
		want := tr.Output().Logit(simd.Active(), id, h)
		if scores[id] != want {
			t.Errorf("score[%d] = %g, manual forward %g", id, scores[id], want)
		}
	}
}

func TestChunkBoundaries(t *testing.T) {
	// Batch sizes below, at, and above SampleChunk must all process every
	// sample exactly once.
	for _, batchN := range []int{3, 8, 9, 17} {
		cfg := Config{InputDim: 20, HiddenDim: 6, OutputDim: 8,
			Workers: 2, SampleChunk: 8, Seed: 11}
		tr, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := newPlanted(20, 8, 3, 13)
		st := tr.TrainBatch(p.batch(batchN))
		if st.Samples != batchN {
			t.Errorf("batch %d: processed %d samples", batchN, st.Samples)
		}
		if st.Loss <= 0 {
			t.Errorf("batch %d: loss %g", batchN, st.Loss)
		}
	}
}

func TestLossDecreasesOnFixedBatch(t *testing.T) {
	cfg := Config{InputDim: 25, HiddenDim: 8, OutputDim: 10, LR: 0.05, Workers: 1, Seed: 15}
	tr, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanted(25, 10, 4, 17)
	b := p.batch(16)
	first := tr.TrainBatch(b).Loss
	var last float64
	for i := 0; i < 30; i++ {
		last = tr.TrainBatch(b).Loss
	}
	if last >= first {
		t.Errorf("fixed-batch loss did not decrease: %.4f -> %.4f", first, last)
	}
}

// trainedStateSHA trains a fresh dense baseline for a few batches (several
// chunks each) and hashes its whole trained state: both layers' checkpoints,
// weights, ADAM moments and biases.
func trainedStateSHA(t *testing.T, workers int) string {
	t.Helper()
	cfg := Config{InputDim: 60, HiddenDim: 40, OutputDim: 30, LR: 0.01,
		Workers: workers, SampleChunk: 64, Seed: 21}
	tr, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanted(60, 30, 5, 23)
	for i := 0; i < 8; i++ {
		tr.TrainBatch(p.batch(160))
	}
	h := sha256.New()
	if err := tr.Hidden().Serialize(h); err != nil {
		t.Fatal(err)
	}
	if err := tr.Output().Serialize(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDenseBaselineRepeatable: every worker owns the output rows and hidden
// units it writes, so a run is a function of its inputs at any worker count.
// The W=1 literals were recorded per kernel tier on the commit before the
// hidden backward moved from per-sample calls onto owned unit tiles.
func TestDenseBaselineRepeatable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	if a, b := trainedStateSHA(t, 3), trainedStateSHA(t, 3); a != b {
		t.Errorf("two W=3 runs trained different states: %s vs %s", a, b)
	}
	want := map[string]string{
		"avx512": "e385d422628f50e8ee7febb10692aba4e288ecf2f77ff0de4075415ca06461a3",
		"avx2":   "eeade4026d7622555866474c84007ed38a8d2bd5ab5692e5b5e45c762fd2bfc0",
		"vector": "8765ecbdc118a8a4f0bef215952bab36d9de396c916eb51761a3e208c1f9fe4c",
		"scalar": "5b26e8fb7f11f7c23c4ab000ece9376ead8f2915f358d7f604086a8043622e58",
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		if got := trainedStateSHA(t, 1); got != want[m.String()] {
			t.Errorf("%s: W=1 trained state hashes to %q, want %q", m, got, want[m.String()])
		}
	}
}

func TestMultiLabelTargets(t *testing.T) {
	// Multi-label samples must not crash and must distribute the target mass.
	cfg := Config{InputDim: 20, HiddenDim: 8, OutputDim: 10, Workers: 2, Seed: 3}
	tr, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b sparse.Builder
	b.Add([]int32{1, 3}, []float32{1, 1}, []int32{2, 5, 7})
	b.Add([]int32{0}, []float32{1}, nil) // no labels
	batch, _ := b.CSR()
	st := tr.TrainBatch(batch)
	if st.Samples != 2 {
		t.Errorf("samples %d", st.Samples)
	}
	if st.Loss <= 0 {
		t.Errorf("loss %g, want positive", st.Loss)
	}
}
