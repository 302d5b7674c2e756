package dataset

import (
	"bytes"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// drainSource collects every sample of one pass in emission order.
func drainSource(t *testing.T, s Source, seed uint64) (idx [][]int32, val [][]float32, labels [][]int32) {
	t.Helper()
	if err := s.Reset(seed); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for i := 0; i < b.Len(); i++ {
			v := b.Sample(i)
			idx = append(idx, slices.Clone(v.Indices))
			val = append(val, slices.Clone(v.Values))
			labels = append(labels, slices.Clone(b.Labels(i)))
		}
	}
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	train, _, err := Generate(Amazon670K(0.0005, 7))
	if err != nil {
		t.Fatal(err)
	}
	return train
}

// TestMemorySourceMatchesIter: a MemorySource pass must be bit-identical to
// the legacy epoch iterator with the same seed — the property the Trainer's
// equivalence to the historical epoch loop rests on.
func TestMemorySourceMatchesIter(t *testing.T) {
	d := testDataset(t)
	const batch, seed = 64, 99

	src, err := NewMemorySource(d, batch, sparse.Coalesced)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := src.BatchesPerEpoch(), (d.Len()+batch-1)/batch; got != want {
		t.Fatalf("BatchesPerEpoch = %d, want %d", got, want)
	}

	if err := src.Reset(seed); err != nil {
		t.Fatal(err)
	}
	it := d.Iter(batch, sparse.Coalesced, seed)
	batches := 0
	for {
		want, ok := it.Next()
		got, err := src.Next()
		if !ok {
			if err != io.EOF {
				t.Fatalf("source yields more batches than Iter (err=%v)", err)
			}
			break
		}
		if err != nil {
			t.Fatalf("source ended early at batch %d: %v", batches, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("batch %d: len %d != %d", batches, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			gv, wv := got.Sample(i), want.Sample(i)
			if !slices.Equal(gv.Indices, wv.Indices) || !slices.Equal(gv.Values, wv.Values) ||
				!slices.Equal(got.Labels(i), want.Labels(i)) {
				t.Fatalf("batch %d sample %d differs", batches, i)
			}
		}
		batches++
	}
	if batches != src.BatchesPerEpoch() {
		t.Fatalf("saw %d batches, BatchesPerEpoch says %d", batches, src.BatchesPerEpoch())
	}
}

// TestFileSourceSequentialMatchesReadXMC: with no shuffle window, a file
// pass must yield exactly the samples ReadXMC materializes, in file order.
func TestFileSourceSequentialMatchesReadXMC(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := WriteXMC(&buf, d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := NewFileSource(path, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Features() != d.Features || src.Labels() != d.Labels {
		t.Fatalf("dims %d/%d, want %d/%d", src.Features(), src.Labels(), d.Features, d.Labels)
	}
	if src.header.Samples != d.Len() {
		t.Fatalf("declared %d samples, want %d", src.header.Samples, d.Len())
	}

	for pass := 0; pass < 2; pass++ { // two passes: Reset must rewind cleanly
		idx, val, labels := drainSource(t, src, uint64(pass))
		if len(idx) != d.Len() {
			t.Fatalf("pass %d: %d samples, want %d", pass, len(idx), d.Len())
		}
		for i := range idx {
			v := d.Sample(i)
			if !slices.Equal(idx[i], v.Indices) || !slices.Equal(val[i], v.Values) ||
				!slices.Equal(labels[i], d.LabelsOf(i)) {
				t.Fatalf("pass %d: sample %d differs from ReadXMC order", pass, i)
			}
		}
	}
}

// TestFileSourceRejectsTruncated: a file shorter than its header declares
// must error at end of pass, not yield a silently shorter epoch —
// BatchesPerEpoch (and resume fast-forward) trusts the header.
func TestFileSourceRejectsTruncated(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := WriteXMC(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	truncated := bytes.Join(lines[:len(lines)-3], []byte("\n")) // drop 3 samples
	path := filepath.Join(t.TempDir(), "short.txt")
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := NewFileSource(path, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(1); err != nil {
		t.Fatal(err)
	}
	for {
		_, err := src.Next()
		if err == io.EOF {
			t.Fatal("truncated file streamed to EOF without error")
		}
		if err != nil {
			return // the declared-vs-actual mismatch error
		}
	}
}

// TestFileSourceShuffleWindow: with a window, each pass is a permutation of
// the file (nothing lost, nothing duplicated), deterministic per seed and
// different across seeds.
func TestFileSourceShuffleWindow(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := WriteXMC(&buf, d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := NewFileSource(path, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	key := func(idx []int32, labels []int32) string {
		b := make([]byte, 0, 4*(len(idx)+len(labels)))
		for _, x := range idx {
			b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
		}
		b = append(b, 0xFF)
		for _, y := range labels {
			b = append(b, byte(y), byte(y>>8), byte(y>>16), byte(y>>24))
		}
		return string(b)
	}
	wantKeys := map[string]int{}
	for i := 0; i < d.Len(); i++ {
		wantKeys[key(d.Sample(i).Indices, d.LabelsOf(i))]++
	}

	idx1, _, lab1 := drainSource(t, src, 1)
	if len(idx1) != d.Len() {
		t.Fatalf("shuffled pass has %d samples, want %d", len(idx1), d.Len())
	}
	gotKeys := map[string]int{}
	shuffled := false
	for i := range idx1 {
		gotKeys[key(idx1[i], lab1[i])]++
		if !slices.Equal(idx1[i], d.Sample(i).Indices) {
			shuffled = true
		}
	}
	for k, n := range wantKeys {
		if gotKeys[k] != n {
			t.Fatal("shuffled pass is not a permutation of the file")
		}
	}
	if !shuffled {
		t.Fatal("window shuffle left the file order unchanged")
	}

	// Same seed → same order; different seed → (overwhelmingly) different.
	idx1b, _, _ := drainSource(t, src, 1)
	idx2, _, _ := drainSource(t, src, 2)
	same1, same2 := true, true
	for i := range idx1 {
		if !slices.Equal(idx1[i], idx1b[i]) {
			same1 = false
		}
		if !slices.Equal(idx1[i], idx2[i]) {
			same2 = false
		}
	}
	if !same1 {
		t.Fatal("same seed produced different shuffle orders")
	}
	if same2 {
		t.Fatal("different seeds produced identical shuffle orders")
	}
}

// TestSyntheticSourceMatchesGenerate: a synthetic pass seeded with the train
// stream id reproduces Generate's train split bit-for-bit — the generator
// and the source share one sample routine.
func TestSyntheticSourceMatchesGenerate(t *testing.T) {
	cfg := Amazon670K(0.0005, 7)
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSyntheticSource(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	idx, val, labels := drainSource(t, src, 0xEC0) // Generate's train stream id
	if len(idx) != train.Len() {
		t.Fatalf("pass has %d samples, want %d", len(idx), train.Len())
	}
	for i := range idx {
		v := train.Sample(i)
		if !slices.Equal(idx[i], v.Indices) || !slices.Equal(val[i], v.Values) ||
			!slices.Equal(labels[i], train.LabelsOf(i)) {
			t.Fatalf("sample %d differs from Generate", i)
		}
	}
}

// TestMemorySourceReshuffleMatchesPerm: every pass — the first, and the ones
// shuffled in place over it — visits samples in the order of the seed's
// rand.Perm, which is what Iter drew before passes shared a permutation.
func TestMemorySourceReshuffleMatchesPerm(t *testing.T) {
	d := testDataset(t)
	src, err := NewMemorySource(d, 32, sparse.Coalesced)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 99, 1, 7} {
		perm := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15)).Perm(d.Len())
		idx, _, labels := drainSource(t, src, seed)
		if len(idx) != len(perm) {
			t.Fatalf("seed %d: pass has %d samples, dataset %d", seed, len(idx), len(perm))
		}
		for k, i := range perm {
			if !slices.Equal(idx[k], d.Sample(i).Indices) || !slices.Equal(labels[k], d.LabelsOf(i)) {
				t.Fatalf("seed %d: position %d is not sample %d", seed, k, i)
			}
		}
	}
}

// TestMemorySourceSteadyStateAllocs: after a first pass has sized the
// permutation and the batch buffers, a pass allocates nothing but its
// shuffle generator and the batch header each Next returns.
func TestMemorySourceSteadyStateAllocs(t *testing.T) {
	d := testDataset(t)
	src, err := NewMemorySource(d, 32, sparse.Coalesced)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	pass := func() {
		seed++
		if err := src.Reset(seed); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := src.Next(); err != nil {
				return
			}
		}
	}
	pass()
	pass() // a later permutation can make one batch larger than any before
	if a, limit := testing.AllocsPerRun(10, pass), float64(src.BatchesPerEpoch()+2); a > limit {
		t.Errorf("a pass of %d batches allocates %v objects, want at most %v", src.BatchesPerEpoch(), a, limit)
	}
}
