package network

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/sparse"
)

// plantedProblem generates a learnable extreme-classification task: every
// class owns a sparse prototype; samples are noisy copies of their class
// prototype labelled with the class id.
type plantedProblem struct {
	dim, classes, protoNNZ int
	protos                 [][]int32
	rng                    *rand.Rand
}

func newPlanted(dim, classes, protoNNZ int, seed uint64) *plantedProblem {
	p := &plantedProblem{dim: dim, classes: classes, protoNNZ: protoNNZ,
		rng: rand.New(rand.NewPCG(seed, 0xfeed))}
	p.protos = make([][]int32, classes)
	for c := range p.protos {
		used := map[int32]bool{}
		idx := make([]int32, 0, protoNNZ)
		for len(idx) < protoNNZ {
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

func (p *plantedProblem) batch(n int) sparse.Batch {
	var b sparse.Builder
	for i := 0; i < n; i++ {
		c := p.rng.IntN(p.classes)
		vals := make([]float32, p.protoNNZ)
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

// evalP1 measures precision@1 on fresh samples.
func evalP1(n *Network, p *plantedProblem, samples int) float64 {
	b := p.batch(samples)
	hits := 0
	for i := 0; i < b.Len(); i++ {
		pred := n.Predict(b.Sample(i), 1)
		if len(pred) == 1 && pred[0] == b.Labels(i)[0] {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

func trainN(t *testing.T, n *Network, p *plantedProblem, batches, batchSize int) float64 {
	t.Helper()
	var lastLoss float64
	for i := 0; i < batches; i++ {
		st := n.TrainBatch(p.batch(batchSize))
		if st.Samples != batchSize {
			t.Fatalf("batch %d: processed %d samples, want %d", i, st.Samples, batchSize)
		}
		lastLoss = st.Loss / float64(st.Samples)
	}
	return lastLoss
}

func TestConfigValidateDefaults(t *testing.T) {
	c := Config{InputDim: 10, HiddenDim: 5, OutputDim: 20, K: 2, L: 3}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LR != 1e-4 || c.Beta1 != 0.9 || c.Beta2 != 0.999 || c.Eps != 1e-8 {
		t.Error("optimizer defaults not applied")
	}
	if c.BucketCap != 128 || c.BinSize != 8 || c.RebuildEvery != 50 || c.RebuildGrowth != 1.05 {
		t.Error("structural defaults not applied")
	}
	if c.Workers <= 0 {
		t.Error("workers default not applied")
	}
	if c.MinActive != 20 { // clamped to OutputDim
		t.Errorf("MinActive = %d, want clamp to 20", c.MinActive)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []Config{
		{InputDim: 0, HiddenDim: 5, OutputDim: 5, K: 1, L: 1},
		{InputDim: 5, HiddenDim: 0, OutputDim: 5, K: 1, L: 1},
		{InputDim: 5, HiddenDim: 5, OutputDim: 0, K: 1, L: 1},
		{InputDim: 5, HiddenDim: 5, OutputDim: 5}, // sampling without K/L
		{InputDim: 5, HiddenDim: 5, OutputDim: 5, K: 1, L: 1, BucketCap: -1},
		{InputDim: 5, HiddenDim: 5, OutputDim: 50, K: 1, L: 1, MinActive: 10, MaxActive: 5},
		{InputDim: 5, HiddenDim: 5, OutputDim: 5, K: 1, L: 1, Beta1: 1.5},
		{InputDim: 5, HiddenDim: 5, OutputDim: 5, K: 1, L: 1, RebuildGrowth: 0.5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v) passed validation", i, c)
		}
	}
}

// TestConfigValidateRejectsNonFinite: every optimizer and rebuild
// hyperparameter must be finite and in range once defaults are filled, so a
// NaN or an infinity — from a caller, a checkpoint or a replication base —
// is an error, and SetLR ignores one.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Config){
		"LR NaN":            func(c *Config) { c.LR = nan },
		"LR +Inf":           func(c *Config) { c.LR = inf },
		"LR -1":             func(c *Config) { c.LR = -1 },
		"Beta1 NaN":         func(c *Config) { c.Beta1 = nan },
		"Beta1 1":           func(c *Config) { c.Beta1 = 1 },
		"Beta2 NaN":         func(c *Config) { c.Beta2 = nan },
		"Beta2 -0.5":        func(c *Config) { c.Beta2 = -0.5 },
		"Eps NaN":           func(c *Config) { c.Eps = nan },
		"Eps -1":            func(c *Config) { c.Eps = -1 },
		"Eps +Inf":          func(c *Config) { c.Eps = inf },
		"RebuildGrowth NaN": func(c *Config) { c.RebuildGrowth = nan },
		"RebuildGrowth Inf": func(c *Config) { c.RebuildGrowth = inf },
	}
	for name, set := range cases {
		c := Config{InputDim: 5, HiddenDim: 5, OutputDim: 5, K: 1, L: 1}
		set(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s passed validation", name)
		}
	}
	c := Config{InputDim: 5, HiddenDim: 5, OutputDim: 5, K: 1, L: 1, LR: 0.5, Beta1: 1e-300, Eps: 1e-300, RebuildGrowth: 1}
	if err := c.Validate(); err != nil {
		t.Errorf("finite in-range hyperparameters refused: %v", err)
	}
	n, err := New(&c)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range []float64{nan, inf, -inf, 0, -1} {
		n.SetLR(lr)
	}
	if got := n.Config().LR; got != 0.5 {
		t.Errorf("SetLR took a rate that is not finite and positive: LR = %g", got)
	}
}

func TestNewRejectsBadHashFamily(t *testing.T) {
	cfg := Config{InputDim: 10, HiddenDim: 8, OutputDim: 10, K: 2, L: 2, Hash: HashFamily(9)}
	if _, err := New(&cfg); err == nil {
		t.Error("unknown hash family accepted")
	}
}

func TestHashFamilyString(t *testing.T) {
	if DWTA.String() != "dwta" || SimHash.String() != "simhash" || HashFamily(9).String() != "unknown" {
		t.Error("HashFamily strings wrong")
	}
}

func TestSlideLearnsPlantedProblem(t *testing.T) {
	p := newPlanted(100, 40, 8, 1)
	cfg := Config{
		InputDim: 100, HiddenDim: 32, OutputDim: 40,
		Hash: DWTA, K: 2, L: 10, BucketCap: 32,
		MinActive: 8, LR: 0.01, Workers: 2, Shards: 2,
		RebuildEvery: 20, Seed: 42,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := evalP1(n, p, 100)
	trainN(t, n, p, 120, 64)
	after := evalP1(n, p, 200)
	if after < 0.5 {
		t.Errorf("SLIDE failed to learn: P@1 %.3f -> %.3f (chance %.3f)", before, after, 1.0/40)
	}
	// Active sets must be far smaller than the full output layer.
	st := n.TrainBatch(p.batch(64))
	meanActive := float64(st.ActiveSum) / float64(st.Samples)
	if meanActive >= 40 {
		t.Errorf("sampling is not sparse: mean active %.1f of 40", meanActive)
	}
}

func TestFullSoftmaxEngineLearns(t *testing.T) {
	p := newPlanted(80, 25, 6, 2)
	cfg := Config{
		InputDim: 80, HiddenDim: 24, OutputDim: 25,
		NoSampling: true, LR: 0.01, Workers: 1, Seed: 7,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 100, 64)
	if p1 := evalP1(n, p, 200); p1 < 0.6 {
		t.Errorf("full softmax failed to learn: P@1 = %.3f", p1)
	}
	if n.Tables() != nil {
		t.Error("NoSampling network should not build tables")
	}
}

func TestSimHashVariantLearns(t *testing.T) {
	p := newPlanted(80, 25, 6, 3)
	cfg := Config{
		InputDim: 80, HiddenDim: 24, OutputDim: 25,
		Hash: SimHash, K: 4, L: 12, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 2, Shards: 2,
		RebuildEvery: 20, Seed: 11,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 120, 64)
	if p1 := evalP1(n, p, 200); p1 < 0.5 {
		t.Errorf("SimHash SLIDE failed to learn: P@1 = %.3f", p1)
	}
}

func TestBF16ModesLearn(t *testing.T) {
	for _, prec := range []layer.Precision{layer.BF16Act, layer.BF16Both} {
		p := newPlanted(60, 20, 5, 4)
		cfg := Config{
			InputDim: 60, HiddenDim: 16, OutputDim: 20,
			Hash: DWTA, K: 2, L: 8, BucketCap: 32,
			MinActive: 6, LR: 0.01, Workers: 1,
			Precision: prec, RebuildEvery: 25, Seed: 13,
		}
		n, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		trainN(t, n, p, 120, 64)
		if p1 := evalP1(n, p, 200); p1 < 0.45 {
			t.Errorf("%v failed to learn: P@1 = %.3f", prec, p1)
		}
	}
}

func TestScatteredLayoutLearns(t *testing.T) {
	p := newPlanted(60, 20, 5, 5)
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1,
		Placement: layer.Scattered, RebuildEvery: 25, Seed: 17,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 120, 64)
	if p1 := evalP1(n, p, 200); p1 < 0.5 {
		t.Errorf("scattered layout failed to learn: P@1 = %.3f", p1)
	}
}

func TestSingleWorkerDeterminism(t *testing.T) {
	mk := func() (*Network, *plantedProblem) {
		p := newPlanted(50, 15, 5, 9)
		cfg := Config{
			InputDim: 50, HiddenDim: 12, OutputDim: 15,
			Hash: DWTA, K: 2, L: 6, BucketCap: 16,
			MinActive: 5, LR: 0.01, Workers: 1,
			RebuildEvery: 10, Seed: 99,
		}
		n, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n, p
	}
	n1, p1 := mk()
	n2, p2 := mk()
	for i := 0; i < 30; i++ {
		b1, b2 := p1.batch(32), p2.batch(32)
		n1.TrainBatch(b1)
		n2.TrainBatch(b2)
	}
	x := p1.batch(1).Sample(0)
	s1 := make([]float32, 15)
	s2 := make([]float32, 15)
	n1.Scores(x, s1)
	n2.Scores(x, s2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("single-worker training is not deterministic: score[%d] %g vs %g", i, s1[i], s2[i])
		}
	}
}

func TestRebuildSchedule(t *testing.T) {
	p := newPlanted(40, 10, 4, 6)
	cfg := Config{
		InputDim: 40, HiddenDim: 8, OutputDim: 10,
		Hash: DWTA, K: 2, L: 4, BucketCap: 16,
		MinActive: 4, Workers: 1, RebuildEvery: 3, RebuildGrowth: 2, Seed: 21,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt []int
	for i := 1; i <= 20; i++ {
		if st := n.TrainBatch(p.batch(8)); st.Rebuilt {
			rebuilt = append(rebuilt, i)
		}
	}
	// Period 3, then 6, then 12: rebuilds at batches 3, 9, 21(not reached).
	want := []int{3, 9}
	if len(rebuilt) != len(want) {
		t.Fatalf("rebuilds at %v, want %v", rebuilt, want)
	}
	for i := range want {
		if rebuilt[i] != want[i] {
			t.Fatalf("rebuilds at %v, want %v", rebuilt, want)
		}
	}
}

func TestLabelsAlwaysActive(t *testing.T) {
	// Even with a tiny bucket capacity and MinActive=1, the loss gradient
	// must flow to the true label: after training, scoring a prototype must
	// rank its label far above chance.
	p := newPlanted(50, 30, 5, 7)
	cfg := Config{
		InputDim: 50, HiddenDim: 16, OutputDim: 30,
		Hash: DWTA, K: 2, L: 4, BucketCap: 4,
		MinActive: 1, LR: 0.01, Workers: 1, RebuildEvery: 15, Seed: 23,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 150, 32)
	if p1 := evalP1(n, p, 150); p1 < 0.4 {
		t.Errorf("P@1 = %.3f: label inclusion in active set appears broken", p1)
	}
}

func TestMaxActiveCaps(t *testing.T) {
	p := newPlanted(50, 40, 5, 8)
	cfg := Config{
		InputDim: 50, HiddenDim: 16, OutputDim: 40,
		Hash: DWTA, K: 1, L: 20, BucketCap: 64, // aggressive: many candidates
		MinActive: 4, MaxActive: 10, Workers: 1, Seed: 25,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := n.TrainBatch(p.batch(64))
	meanActive := float64(st.ActiveSum) / float64(st.Samples)
	if meanActive > 10.5 {
		t.Errorf("MaxActive not enforced: mean active %.1f > 10", meanActive)
	}
}

func TestDeepStackLearns(t *testing.T) {
	p := newPlanted(80, 25, 6, 15)
	cfg := Config{
		InputDim: 80, HiddenDim: 32, OutputDim: 25,
		HiddenLayers: []int{24, 16}, // input→32→24→16→25
		Hash:         DWTA, K: 2, L: 10, BucketCap: 32,
		MinActive: 8, LR: 0.01, Workers: 2, Shards: 2,
		RebuildEvery: 20, Seed: 33,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.middle); got != 2 {
		t.Fatalf("built %d middle layers, want 2", got)
	}
	if n.lastDim != 16 {
		t.Fatalf("lastDim = %d, want 16", n.lastDim)
	}
	trainN(t, n, p, 200, 64)
	if p1 := evalP1(n, p, 200); p1 < 0.4 {
		t.Errorf("deep stack failed to learn: P@1 = %.3f", p1)
	}
}

func TestDeepStackGradientCheck(t *testing.T) {
	// Numerical gradient through the full stack: loss must decrease along
	// repeated single-batch steps on a fixed batch (sanity of chained
	// backprop; the per-layer math is covered by layer tests).
	p := newPlanted(40, 10, 4, 16)
	cfg := Config{
		InputDim: 40, HiddenDim: 16, OutputDim: 10,
		HiddenLayers: []int{12},
		NoSampling:   true, LR: 0.05, Workers: 1, Seed: 35,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := p.batch(16)
	first := n.TrainBatch(b).Loss
	var last float64
	for i := 0; i < 40; i++ {
		last = n.TrainBatch(b).Loss
	}
	if last >= first*0.9 {
		t.Errorf("deep-stack loss barely moved on a fixed batch: %.4f -> %.4f", first, last)
	}
}

func TestDeepStackValidation(t *testing.T) {
	cfg := Config{InputDim: 10, HiddenDim: 8, OutputDim: 10,
		HiddenLayers: []int{4, 0}, K: 1, L: 1}
	if err := cfg.Validate(); err == nil {
		t.Error("zero-width stacked layer accepted")
	}
}

func TestDeepStackSaveLoad(t *testing.T) {
	p := newPlanted(50, 15, 5, 17)
	cfg := Config{
		InputDim: 50, HiddenDim: 16, OutputDim: 15,
		HiddenLayers: []int{12},
		Hash:         DWTA, K: 2, L: 6,
		MinActive: 6, LR: 0.01, Workers: 1, Seed: 37,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n.TrainBatch(p.batch(32))
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.middle) != 1 || loaded.lastDim != 12 {
		t.Fatalf("stack shape not restored: %d middle, lastDim %d",
			len(loaded.middle), loaded.lastDim)
	}
	x := p.batch(1).Sample(0)
	s1 := make([]float32, 15)
	s2 := make([]float32, 15)
	n.Scores(x, s1)
	loaded.Scores(x, s2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("deep checkpoint round trip changed score[%d]: %g vs %g", i, s1[i], s2[i])
		}
	}
}

func TestDeepStackWithBF16AndScattered(t *testing.T) {
	// Combined configuration stress: deep stack + BF16 output quantization
	// + scattered placement + the phase engine on 2 workers must train
	// without corruption.
	p := newPlanted(60, 18, 5, 18)
	cfg := Config{
		InputDim: 60, HiddenDim: 20, OutputDim: 18,
		HiddenLayers: []int{14},
		Hash:         DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 2, Shards: 2,
		Precision: layer.BF16Both, Placement: layer.Scattered,
		RebuildEvery: 20, Seed: 39,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 120, 64)
	if p1 := evalP1(n, p, 150); p1 < 0.3 {
		t.Errorf("combined config failed to learn: P@1 = %.3f", p1)
	}
}

func TestOutOfRangeLabelsIgnored(t *testing.T) {
	cfg := Config{InputDim: 20, HiddenDim: 8, OutputDim: 10,
		Hash: DWTA, K: 2, L: 4, MinActive: 4, Workers: 1, Seed: 41}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b sparse.Builder
	b.Add([]int32{1}, []float32{1}, []int32{3, 99}) // 99 out of range
	batch, _ := b.CSR()
	st := n.TrainBatch(batch) // must not panic
	if st.Samples != 1 {
		t.Errorf("samples %d", st.Samples)
	}
}

func TestUniformSamplingLearns(t *testing.T) {
	p := newPlanted(60, 20, 5, 12)
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		UniformSampling: true, MinActive: 6,
		LR: 0.01, Workers: 1, Seed: 19,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tables() != nil {
		t.Error("uniform sampling must not build hash tables")
	}
	trainN(t, n, p, 120, 64)
	if p1 := evalP1(n, p, 200); p1 < 0.4 {
		t.Errorf("uniform sampling failed to learn: P@1 = %.3f", p1)
	}
	st := n.TrainBatch(p.batch(64))
	meanActive := float64(st.ActiveSum) / float64(st.Samples)
	if meanActive >= 20 {
		t.Errorf("uniform sampling not sparse: %g", meanActive)
	}
}

func TestUniformAndNoSamplingConflict(t *testing.T) {
	cfg := Config{InputDim: 5, HiddenDim: 4, OutputDim: 5,
		NoSampling: true, UniformSampling: true}
	if err := cfg.Validate(); err == nil {
		t.Error("conflicting sampling modes accepted")
	}
}

func TestPredictSampled(t *testing.T) {
	p := newPlanted(80, 25, 6, 14)
	cfg := Config{
		InputDim: 80, HiddenDim: 24, OutputDim: 25,
		Hash: DWTA, K: 2, L: 12, BucketCap: 32,
		MinActive: 8, LR: 0.01, Workers: 1, RebuildEvery: 15, Seed: 29,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 150, 64)

	// After training, sampled inference should usually agree with the exact
	// top-1 (label neurons dominate their prototypes' buckets).
	eval := p.batch(100)
	scores := make([]float32, 25)
	agree := 0
	for i := 0; i < eval.Len(); i++ {
		exact := n.Predict(eval.Sample(i), 1)
		sampled, err := n.PredictSampled(eval.Sample(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) == 1 && len(sampled) >= 1 && exact[0] == sampled[0] {
			agree++
		}
	}
	if agree < 40 {
		t.Errorf("sampled inference agrees with exact top-1 on only %d/100 samples", agree)
	}

	// Ranked output is consistent: first sampled prediction has the highest
	// logit among returned ids.
	out, err := n.PredictSampled(eval.Sample(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 1 {
		n.Scores(eval.Sample(0), scores)
		if scores[out[0]] < scores[out[1]] {
			t.Error("PredictSampled ranking inconsistent")
		}
	}
}

func TestPredictSampledErrorsWithoutLSH(t *testing.T) {
	// Both non-LSH modes must return the documented error — not panic — so
	// callers can fall back to the exact path.
	for name, cfg := range map[string]Config{
		"no-sampling": {InputDim: 10, HiddenDim: 4, OutputDim: 8, NoSampling: true, Workers: 1},
		"uniform":     {InputDim: 10, HiddenDim: 4, OutputDim: 8, UniformSampling: true, Workers: 1},
	} {
		n, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := sparse.Vector{Indices: []int32{1}, Values: []float32{1}}
		if _, err := n.PredictSampled(x, 1); !errors.Is(err, ErrNoSampling) {
			t.Errorf("%s: PredictSampled error = %v, want ErrNoSampling", name, err)
		}
		// The fallback-to-exact path keeps working on the same model.
		if got := n.Predict(x, 2); len(got) != 2 {
			t.Errorf("%s: exact fallback Predict returned %v", name, got)
		}
	}
}

func TestEmptyLabelSample(t *testing.T) {
	// Samples with no labels must not crash: they contribute pure negative
	// sampling pressure.
	cfg := Config{
		InputDim: 20, HiddenDim: 8, OutputDim: 10,
		Hash: DWTA, K: 2, L: 4, MinActive: 4, Workers: 1, Seed: 27,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b sparse.Builder
	b.Add([]int32{1, 5}, []float32{1, 1}, nil) // no labels
	b.Add(nil, nil, []int32{3})                // no features
	batch, err := b.CSR()
	if err != nil {
		t.Fatal(err)
	}
	st := n.TrainBatch(batch)
	if st.Samples != 2 {
		t.Errorf("processed %d samples", st.Samples)
	}
}

func TestPredictScoresBufferPanic(t *testing.T) {
	cfg := Config{InputDim: 10, HiddenDim: 4, OutputDim: 8, K: 1, L: 1, Workers: 1, Seed: 1}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("short scores buffer did not panic")
		}
	}()
	n.Scores(sparse.Vector{}, make([]float32, 3))
}
