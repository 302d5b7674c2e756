package sparse

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func buildSample(rng *rand.Rand, dim, nnz, nlabels int) ([]int32, []float32, []int32) {
	seen := map[int32]bool{}
	idx := make([]int32, 0, nnz)
	for len(idx) < nnz {
		i := int32(rng.IntN(dim))
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	// sort ascending
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	val := make([]float32, nnz)
	for i := range val {
		val[i] = float32(rng.NormFloat64())
	}
	labels := make([]int32, nlabels)
	for i := range labels {
		labels[i] = int32(rng.IntN(100))
	}
	return idx, val, labels
}

func TestBuilderBothLayoutsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var b Builder
	type sample struct {
		idx    []int32
		val    []float32
		labels []int32
	}
	var want []sample
	for i := 0; i < 20; i++ {
		idx, val, labels := buildSample(rng, 500, 1+rng.IntN(10), 1+rng.IntN(3))
		want = append(want, sample{idx, val, labels})
		b.Add(idx, val, labels)
	}
	if b.Len() != 20 {
		t.Fatalf("builder Len = %d, want 20", b.Len())
	}

	csr, err := b.CSR()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild for the fragmented copy (CSR took ownership of the buffers).
	var b2 Builder
	for _, s := range want {
		b2.Add(s.idx, s.val, s.labels)
	}
	frag, err := b2.Fragmented()
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []Batch{csr, frag} {
		if batch.Len() != len(want) {
			t.Fatalf("batch Len = %d, want %d", batch.Len(), len(want))
		}
		totalNNZ := 0
		for i, s := range want {
			v := batch.Sample(i)
			if len(v.Indices) != len(s.idx) {
				t.Fatalf("sample %d nnz = %d, want %d", i, len(v.Indices), len(s.idx))
			}
			for k := range s.idx {
				if v.Indices[k] != s.idx[k] || v.Values[k] != s.val[k] {
					t.Fatalf("sample %d entry %d mismatch", i, k)
				}
			}
			lab := batch.Labels(i)
			if len(lab) != len(s.labels) {
				t.Fatalf("sample %d labels = %d, want %d", i, len(lab), len(s.labels))
			}
			for k := range lab {
				if lab[k] != s.labels[k] {
					t.Fatalf("sample %d label %d mismatch", i, k)
				}
			}
			totalNNZ += len(s.idx)
		}
		if batch.NNZ() != totalNNZ {
			t.Errorf("NNZ = %d, want %d", batch.NNZ(), totalNNZ)
		}
	}
}

func TestCSRStorageIsContiguous(t *testing.T) {
	var b Builder
	b.Add([]int32{1, 5}, []float32{1, 2}, []int32{0})
	b.Add([]int32{0, 3, 7}, []float32{3, 4, 5}, []int32{1, 2})
	csr, err := b.CSR()
	if err != nil {
		t.Fatal(err)
	}
	s0 := csr.Sample(0)
	s1 := csr.Sample(1)
	// Consecutive samples must be adjacent in the same backing array:
	// the end of sample 0's values is the start of sample 1's values.
	if &s0.Values[:cap(s0.Values)][0] != &csr.values[0] {
		t.Error("sample 0 does not alias the shared backing buffer")
	}
	if &s1.Values[0] != &csr.values[2] {
		t.Error("sample 1 is not adjacent to sample 0 in backing storage")
	}
}

func TestBuilderEmptySample(t *testing.T) {
	var b Builder
	b.Add(nil, nil, []int32{4})
	b.Add([]int32{2}, []float32{1}, nil)
	csr, err := b.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if csr.Sample(0).NNZ() != 0 {
		t.Error("empty sample should have zero nnz")
	}
	if len(csr.Labels(1)) != 0 {
		t.Error("missing labels should be empty")
	}
}

func TestEmptyBatchError(t *testing.T) {
	var b Builder
	if _, err := b.CSR(); err != ErrEmptyBatch {
		t.Errorf("CSR on empty builder: err = %v, want ErrEmptyBatch", err)
	}
	if _, err := b.Fragmented(); err != ErrEmptyBatch {
		t.Errorf("Fragmented on empty builder: err = %v, want ErrEmptyBatch", err)
	}
}

func TestBuilderAddMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched slices did not panic")
		}
	}()
	var b Builder
	b.Add([]int32{1, 2}, []float32{1}, nil)
}

func TestBuilderReset(t *testing.T) {
	var b Builder
	b.Add([]int32{1}, []float32{1}, nil)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("after Reset Len = %d", b.Len())
	}
	b.Add([]int32{2, 3}, []float32{4, 5}, []int32{9})
	csr, err := b.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if csr.Len() != 1 || csr.Sample(0).Values[0] != 4 {
		t.Error("builder unusable after Reset")
	}
}

func TestBuildLayoutDispatch(t *testing.T) {
	var b Builder
	b.Add([]int32{0}, []float32{1}, nil)
	if batch, err := b.Build(Coalesced); err != nil || batch.Len() != 1 {
		t.Errorf("Build(Coalesced) = %v, %v", batch, err)
	}
	var b2 Builder
	b2.Add([]int32{0}, []float32{1}, nil)
	if batch, err := b2.Build(Fragmented); err != nil || batch.Len() != 1 {
		t.Errorf("Build(Fragmented) = %v, %v", batch, err)
	}
	var b3 Builder
	b3.Add([]int32{0}, []float32{1}, nil)
	if _, err := b3.Build(Layout(42)); err == nil {
		t.Error("Build with unknown layout should error")
	}
}

func TestLayoutString(t *testing.T) {
	if Coalesced.String() != "coalesced" || Fragmented.String() != "fragmented" || Layout(7).String() != "unknown" {
		t.Error("Layout.String values wrong")
	}
}

func TestVectorValidate(t *testing.T) {
	ok := Vector{Indices: []int32{1, 4, 9}, Values: []float32{1, 2, 3}}
	if err := ok.Validate(10); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	cases := map[string]Vector{
		"length mismatch": {Indices: []int32{1}, Values: []float32{1, 2}},
		"out of range":    {Indices: []int32{10}, Values: []float32{1}},
		"negative":        {Indices: []int32{-1}, Values: []float32{1}},
		"unsorted":        {Indices: []int32{4, 2}, Values: []float32{1, 2}},
		"duplicate":       {Indices: []int32{2, 2}, Values: []float32{1, 2}},
	}
	for name, v := range cases {
		if err := v.Validate(10); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// dim < 0 skips range check
	big := Vector{Indices: []int32{1000000}, Values: []float32{1}}
	if err := big.Validate(-1); err != nil {
		t.Errorf("negative dim should skip range check: %v", err)
	}
}

func TestVectorDotAndDense(t *testing.T) {
	v := Vector{Indices: []int32{1, 3}, Values: []float32{2, 5}}
	dense := []float32{10, 20, 30, 40}
	if got := v.Dot(dense); got != 2*20+5*40 {
		t.Errorf("Dot = %g", got)
	}
	d := v.Dense(4)
	want := []float32{0, 2, 0, 5}
	for i := range d {
		if d[i] != want[i] {
			t.Errorf("Dense[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

func TestValidateBatch(t *testing.T) {
	var b Builder
	b.Add([]int32{1, 2}, []float32{1, 1}, nil)
	b.Add([]int32{99}, []float32{1}, nil)
	csr, _ := b.CSR()
	if err := Validate(csr, 100); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	if err := Validate(csr, 50); err == nil {
		t.Error("out-of-dim batch accepted")
	}
}

func TestPropertyLayoutEquivalence(t *testing.T) {
	// Any sequence of samples yields identical views in both layouts.
	f := func(seed uint64, nSamples uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xdead))
		n := int(nSamples%16) + 1
		var b1, b2 Builder
		for i := 0; i < n; i++ {
			idx, val, labels := buildSample(rng, 200, 1+rng.IntN(8), rng.IntN(4))
			b1.Add(idx, val, labels)
			b2.Add(idx, val, labels)
		}
		csr, err1 := b1.CSR()
		frag, err2 := b2.Fragmented()
		if err1 != nil || err2 != nil {
			return false
		}
		if csr.Len() != frag.Len() || csr.NNZ() != frag.NNZ() {
			return false
		}
		for i := 0; i < csr.Len(); i++ {
			a, c := csr.Sample(i), frag.Sample(i)
			if len(a.Indices) != len(c.Indices) {
				return false
			}
			for k := range a.Indices {
				if a.Indices[k] != c.Indices[k] || a.Values[k] != c.Values[k] {
					return false
				}
			}
			la, lc := csr.Labels(i), frag.Labels(i)
			if len(la) != len(lc) {
				return false
			}
			for k := range la {
				if la[k] != lc[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuilderSteadyStateAllocs: Reset keeps all five buffers, so refilling a
// builder to a size it has held before allocates only the finalized batch's
// header. (Reset used to drop both offset vectors, which then regrew from
// zero by doubling on every batch.)
func TestBuilderSteadyStateAllocs(t *testing.T) {
	var b Builder
	fill := func() {
		b.Reset()
		for i := 0; i < 256; i++ {
			b.Add([]int32{1, 5, 9}, []float32{1, 2, 3}, []int32{7})
		}
		if _, err := b.CSR(); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if a := testing.AllocsPerRun(20, fill); a > 1 {
		t.Errorf("refilling a warmed builder allocates %v objects, want 1 (the CSRBatch)", a)
	}
}
