package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// zipfProb is P(rank i) under z: the step of its cumulative table at i.
func zipfProb(z *Zipf, i int) float64 {
	if i < 0 || i >= len(z.cum) {
		return 0
	}
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}

func TestZipfBasics(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Error("negative exponent accepted")
	}
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.cum) != 100 {
		t.Errorf("N = %d", len(z.cum))
	}
	// Probabilities sum to 1 and decrease with rank.
	sum := 0.0
	for i := 0; i < 100; i++ {
		p := zipfProb(z, i)
		if p <= 0 {
			t.Fatalf("Prob(%d) = %g", i, p)
		}
		if i > 0 && p > zipfProb(z, i-1)+1e-12 {
			t.Fatalf("Prob not decreasing at %d", i)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
	if zipfProb(z, -1) != 0 || zipfProb(z, 100) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	// Inverse CDF edges.
	if z.Sample(0) != 0 {
		t.Errorf("Sample(0) = %d, want 0", z.Sample(0))
	}
	if got := z.Sample(0.999999999); got != 99 {
		t.Errorf("Sample(~1) = %d, want 99", got)
	}
	// Uniform case.
	u, _ := NewZipf(4, 0)
	for i := 0; i < 4; i++ {
		if math.Abs(zipfProb(u, i)-0.25) > 1e-12 {
			t.Errorf("uniform Prob(%d) = %g", i, zipfProb(u, i))
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, _ := NewZipf(1000, 1.0)
	// Head mass: with s=1 over 1000 ranks, rank 0 holds ~1/H(1000) ≈ 13%.
	if zipfProb(z, 0) < 0.1 || zipfProb(z, 0) > 0.2 {
		t.Errorf("head probability %g outside Zipf expectation", zipfProb(z, 0))
	}
}

func TestSyntheticGenerate(t *testing.T) {
	cfg := SyntheticConfig{
		Name: "toy", Features: 500, Labels: 50,
		TrainSize: 200, TestSize: 50,
		PrototypeNNZ: 8, MaxLabels: 3, ZipfS: 1.0, NoiseFeatures: 4, Seed: 1,
	}
	train, test, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 200 || test.Len() != 50 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
	st := train.Stats()
	if st.AvgLabels < 1 || st.AvgLabels > 3 {
		t.Errorf("AvgLabels = %g", st.AvgLabels)
	}
	if st.AvgFeatureNNZ < float64(cfg.PrototypeNNZ)/2 {
		t.Errorf("AvgFeatureNNZ = %g, suspiciously low", st.AvgFeatureNNZ)
	}
	if st.FeatureSparsity <= 0 || st.FeatureSparsity > 0.2 {
		t.Errorf("FeatureSparsity = %g", st.FeatureSparsity)
	}
	// Deterministic: same config regenerates identical data.
	train2, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, b := train.Sample(i), train2.Sample(i)
		if len(a.Indices) != len(b.Indices) {
			t.Fatal("generation is not deterministic")
		}
		for k := range a.Indices {
			if a.Indices[k] != b.Indices[k] || a.Values[k] != b.Values[k] {
				t.Fatal("generation is not deterministic")
			}
		}
	}
}

func TestSyntheticSharedPrototypes(t *testing.T) {
	// Two samples with the same single label must share prototype features —
	// the learnable signal.
	cfg := SyntheticConfig{
		Name: "toy", Features: 1000, Labels: 5,
		TrainSize: 300, TestSize: 0,
		PrototypeNNZ: 10, MaxLabels: 1, ZipfS: 0, NoiseFeatures: 0, Seed: 2,
	}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[int32][]int{}
	for i := 0; i < train.Len(); i++ {
		y := train.LabelsOf(i)[0]
		byLabel[y] = append(byLabel[y], i)
	}
	for y, ids := range byLabel {
		if len(ids) < 2 {
			continue
		}
		a := train.Sample(ids[0])
		b := train.Sample(ids[1])
		shared := 0
		set := map[int32]bool{}
		for _, f := range a.Indices {
			set[f] = true
		}
		for _, f := range b.Indices {
			if set[f] {
				shared++
			}
		}
		if shared < cfg.PrototypeNNZ/2 {
			t.Errorf("label %d: samples share only %d features", y, shared)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Features: 0, Labels: 5, TrainSize: 1, PrototypeNNZ: 1, MaxLabels: 1},
		{Features: 5, Labels: 0, TrainSize: 1, PrototypeNNZ: 1, MaxLabels: 1},
		{Features: 5, Labels: 5, TrainSize: 0, PrototypeNNZ: 1, MaxLabels: 1},
		{Features: 5, Labels: 5, TrainSize: 1, PrototypeNNZ: 9, MaxLabels: 1},
		{Features: 5, Labels: 5, TrainSize: 1, PrototypeNNZ: 1, MaxLabels: 0},
		{Features: 5, Labels: 5, TrainSize: 1, PrototypeNNZ: 1, MaxLabels: 1, ZipfS: -2},
	}
	for i, c := range bad {
		if _, _, err := Generate(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPresets(t *testing.T) {
	a := Amazon670K(0.01, 7)
	if a.Features != 1359 || a.Labels != 6700 {
		t.Errorf("amazon scaled dims: %d features, %d labels", a.Features, a.Labels)
	}
	w := WikiLSH325K(0.001, 7)
	if w.Features != 1617 {
		t.Errorf("wiki features %d", w.Features)
	}
	// Floors engage at tiny scales.
	tiny := Amazon670K(1e-9, 7)
	if tiny.Features < 256 || tiny.Labels < 64 || tiny.TrainSize < 512 {
		t.Errorf("floors not applied: %+v", tiny)
	}
	tx := Text8(0.001, 7)
	if tx.Vocab != 253 || tx.Window != 2 {
		t.Errorf("text8 preset: %+v", tx)
	}
}

func TestText8Generate(t *testing.T) {
	cfg := Text8Config{
		Name: "t8", Vocab: 200, TrainTokens: 2000, TestTokens: 300,
		Window: 2, ZipfS: 1.0, BigramQ: 0.5, Seed: 3,
	}
	train, test, err := GenerateText8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if test == nil || test.Len() == 0 {
		t.Fatal("no test split")
	}
	// Every sample is a one-hot input with 1..2*window labels.
	for i := 0; i < train.Len(); i++ {
		v := train.Sample(i)
		if v.NNZ() != 1 || v.Values[0] != 1 {
			t.Fatalf("sample %d is not one-hot: %v", i, v)
		}
		nl := len(train.LabelsOf(i))
		if nl < 1 || nl > 4 {
			t.Fatalf("sample %d has %d labels", i, nl)
		}
	}
	// The bigram structure must make contexts predictable: the planted
	// successor of a token should appear among its labels far more often
	// than chance.
	hits, total := 0, 0
	for i := 0; i < train.Len(); i++ {
		tok := train.Sample(i).Indices[0]
		succ := successor(cfg.Seed, tok, cfg.Vocab)
		for _, y := range train.LabelsOf(i) {
			if y == succ {
				hits++
				break
			}
		}
		total++
	}
	frac := float64(hits) / float64(total)
	if frac < 0.2 { // chance would be ~4/200 = 2%
		t.Errorf("successor appears in context only %.1f%% of the time", frac*100)
	}
}

func TestText8Validation(t *testing.T) {
	bad := []Text8Config{
		{Vocab: 1, TrainTokens: 100, Window: 2},
		{Vocab: 10, TrainTokens: 2, Window: 2},
		{Vocab: 10, TrainTokens: 100, Window: 0},
		{Vocab: 10, TrainTokens: 100, Window: 2, BigramQ: 1.5},
		{Vocab: 10, TrainTokens: 100, Window: 2, ZipfS: -1},
	}
	for i, c := range bad {
		if _, _, err := GenerateText8(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBatchIter(t *testing.T) {
	cfg := SyntheticConfig{
		Name: "toy", Features: 100, Labels: 10,
		TrainSize: 25, PrototypeNNZ: 4, MaxLabels: 2, Seed: 4,
	}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []sparse.Layout{sparse.Coalesced, sparse.Fragmented} {
		it := train.Iter(8, layout, 9)
		if it.Batches() != 4 {
			t.Errorf("Batches = %d, want 4", it.Batches())
		}
		total := 0
		sizes := []int{}
		for {
			b, ok := it.Next()
			if !ok {
				break
			}
			total += b.Len()
			sizes = append(sizes, b.Len())
		}
		if total != 25 {
			t.Errorf("%v: iterated %d samples, want 25", layout, total)
		}
		if sizes[len(sizes)-1] != 1 {
			t.Errorf("%v: last batch size %d, want 1", layout, sizes[len(sizes)-1])
		}
	}
	// Different seeds give different permutations (almost surely).
	b1, _ := train.Iter(25, sparse.Coalesced, 1).Next()
	b2, _ := train.Iter(25, sparse.Coalesced, 2).Next()
	same := true
	for i := 0; i < 25 && same; i++ {
		a, b := b1.Sample(i), b2.Sample(i)
		if len(a.Indices) != len(b.Indices) {
			same = false
			break
		}
		for k := range a.Indices {
			if a.Indices[k] != b.Indices[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different shuffle seeds produced the same epoch order")
	}
}

func TestHeadAndModelParams(t *testing.T) {
	cfg := SyntheticConfig{
		Name: "toy", Features: 100, Labels: 10,
		TrainSize: 30, PrototypeNNZ: 4, MaxLabels: 2, Seed: 5,
	}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := train.Head(10)
	if h.Len() != 10 {
		t.Errorf("Head len %d", h.Len())
	}
	h2 := train.Head(1000)
	if h2.Len() != 30 {
		t.Errorf("Head clamp failed: %d", h2.Len())
	}
	want := int64(100*16 + 16*10 + 16 + 10)
	if got := train.ModelParams(16); got != want {
		t.Errorf("ModelParams = %d, want %d", got, want)
	}
}

func TestXMCRoundTrip(t *testing.T) {
	cfg := SyntheticConfig{
		Name: "toy", Features: 200, Labels: 20,
		TrainSize: 40, PrototypeNNZ: 5, MaxLabels: 3, Seed: 6,
	}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteXMC(&buf, train); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXMC("toy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != train.Len() || back.Features != train.Features || back.Labels != train.Labels {
		t.Fatalf("round trip changed shape")
	}
	for i := 0; i < train.Len(); i++ {
		a, b := train.Sample(i), back.Sample(i)
		if len(a.Indices) != len(b.Indices) {
			t.Fatalf("sample %d nnz changed", i)
		}
		for k := range a.Indices {
			if a.Indices[k] != b.Indices[k] {
				t.Fatalf("sample %d index changed", i)
			}
			if math.Abs(float64(a.Values[k]-b.Values[k])) > 1e-6 {
				t.Fatalf("sample %d value changed: %g vs %g", i, a.Values[k], b.Values[k])
			}
		}
		la, lb := train.LabelsOf(i), back.LabelsOf(i)
		if len(la) != len(lb) {
			t.Fatalf("sample %d labels changed", i)
		}
		for k := range la {
			if la[k] != lb[k] {
				t.Fatalf("sample %d label changed", i)
			}
		}
	}
}

func TestXMCParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"short header":    "3 4\n",
		"bad header num":  "a 4 5\n",
		"zero dims":       "0 4 5\n",
		"bad label":       "1 10 5\nxx 1:1\n",
		"label range":     "1 10 5\n7 1:1\n",
		"bad feature":     "1 10 5\n1 zz:1\n",
		"feature range":   "1 10 5\n1 10:1\n",
		"bad value":       "1 10 5\n1 1:zz\n",
		"missing colon":   "1 10 5\n1 34\n",
		"sample mismatch": "2 10 5\n1 1:1\n",
	}
	for name, in := range cases {
		if _, err := ReadXMC("x", strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestXMCNoLabelLine(t *testing.T) {
	in := "2 10 5\n 1:0.5 3:0.25\n2,4 0:1\n"
	d, err := ReadXMC("x", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.LabelsOf(0)) != 0 {
		t.Errorf("sample 0 labels = %v, want none", d.LabelsOf(0))
	}
	if got := d.LabelsOf(1); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("sample 1 labels = %v", got)
	}
	if v := d.Sample(0); v.NNZ() != 2 || v.Values[1] != 0.25 {
		t.Errorf("sample 0 = %v", v)
	}
}

func TestIterPanicsOnBadBatchSize(t *testing.T) {
	cfg := SyntheticConfig{Name: "toy", Features: 10, Labels: 5,
		TrainSize: 5, PrototypeNNZ: 2, MaxLabels: 1, Seed: 1}
	train, _, _ := Generate(cfg)
	defer func() {
		if recover() == nil {
			t.Error("batch size 0 did not panic")
		}
	}()
	train.Iter(0, sparse.Coalesced, 1)
}
