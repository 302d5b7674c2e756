package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// stubPredictor is a controllable backend: when gated, every PredictEntries
// call signals entered and waits for one release, so tests can fill the
// admission queue deterministically. Each response labels the serving
// snapshot: out[i] = [version, k], so callers can assert which snapshot
// served them and that per-entry k survived coalescing.
type stubPredictor struct {
	version uint64
	entered chan struct{} // nil = ungated
	release chan struct{}
}

func newGatedStub(version uint64) *stubPredictor {
	return &stubPredictor{
		version: version,
		entered: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (s *stubPredictor) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	out := make([][]int32, len(entries))
	for i, e := range entries {
		out[i] = []int32{int32(s.version), int32(e.K)}
	}
	return out, nil
}

func (s *stubPredictor) Predict(indices []int32, values []float32, k int) []int32 {
	return []int32{int32(s.version), int32(k)}
}

func (s *stubPredictor) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	return nil, errors.New("stub: no sampling")
}

func (s *stubPredictor) Sampled() bool    { return false }
func (s *stubPredictor) Version() uint64  { return s.version }
func (s *stubPredictor) Steps() int64     { return int64(s.version) * 10 }
func (s *stubPredictor) NumLabels() int   { return 100 }
func (s *stubPredictor) NumFeatures() int { return 1000 }

func entry(k int) slide.BatchEntry {
	return slide.BatchEntry{Indices: []int32{1, 2}, Values: []float32{1, 1}, K: k}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherCoalesces(t *testing.T) {
	stub := newGatedStub(7)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 8, QueueCap: 32})
	defer b.Close()

	results := make(chan Result, 8)
	submit := func(k int) {
		go func() {
			r, err := b.Submit(context.Background(), entry(k))
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
			results <- r
		}()
	}

	// First request reaches the worker alone; the worker blocks inside the
	// gated stub holding a batch of one.
	submit(1)
	<-stub.entered
	// The next 7 requests pile up in the queue while the worker is busy.
	for k := 2; k <= 8; k++ {
		submit(k)
	}
	waitFor(t, "queue to fill", func() bool { return b.Stats().QueueDepth == 7 })
	// Release the in-flight flush, then the coalesced one.
	stub.release <- struct{}{}
	<-stub.entered
	stub.release <- struct{}{}

	seenK := map[int32]bool{}
	for i := 0; i < 8; i++ {
		r := <-results
		if r.Version != 7 || len(r.Labels) != 2 || r.Labels[0] != 7 {
			t.Fatalf("result = %+v", r)
		}
		seenK[r.Labels[1]] = true
	}
	for k := int32(1); k <= 8; k++ {
		if !seenK[k] {
			t.Errorf("per-entry k=%d lost in coalescing", k)
		}
	}

	st := b.Stats()
	if st.Batches != 2 {
		t.Errorf("Batches = %d, want 2", st.Batches)
	}
	if st.BatchSizes[0] != 1 || st.BatchSizes[6] != 1 {
		t.Errorf("BatchSizes = %v, want one flush of 1 and one of 7", st.BatchSizes)
	}
	if st.MeanBatch != 4 {
		t.Errorf("MeanBatch = %g, want 4", st.MeanBatch)
	}
	if st.Admitted != 8 || st.Served != 8 || st.Shed != 0 {
		t.Errorf("counters = %+v", st)
	}
}

func TestBatcherMaxBatchBoundsFlush(t *testing.T) {
	stub := newGatedStub(1)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, QueueCap: 32})
	defer b.Close()

	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), entry(3)); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	submit()
	<-stub.entered // batch of 1 in flight
	for i := 0; i < 9; i++ {
		submit()
	}
	waitFor(t, "queue to fill", func() bool { return b.Stats().QueueDepth == 9 })
	for i := 0; i < 3; i++ { // flushes: 1, then 4, 4, 1... release all
		stub.release <- struct{}{}
		<-stub.entered
	}
	stub.release <- struct{}{}
	wg.Wait()

	st := b.Stats()
	for size, n := range st.BatchSizes {
		if n > 0 && size+1 > 4 {
			t.Errorf("flush of %d exceeds MaxBatch=4", size+1)
		}
	}
	if st.Served != 10 || st.Batches != 4 {
		t.Errorf("served %d in %d batches, want 10 in 4", st.Served, st.Batches)
	}
}

func TestBatcherMaxWaitFlushesPartialBatch(t *testing.T) {
	stub := &stubPredictor{version: 3} // ungated
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 64, MaxWait: time.Millisecond, QueueCap: 64})
	defer b.Close()

	// A lone request must be served promptly even though the batch never
	// fills — the MaxWait deadline flushes it.
	r, err := b.Submit(context.Background(), entry(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != 3 || r.Labels[1] != 2 {
		t.Fatalf("result = %+v", r)
	}
	st := b.Stats()
	if st.Batches != 1 || st.BatchSizes[0] != 1 {
		t.Errorf("stats after lone request: %+v", st)
	}
	if st.P50 <= 0 {
		t.Errorf("latency not recorded: %+v", st)
	}
}

func TestBatcherSubmitManyAlignsResults(t *testing.T) {
	stub := &stubPredictor{version: 9}
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 64})
	defer b.Close()

	entries := make([]slide.BatchEntry, 10)
	for i := range entries {
		entries[i] = entry(i + 1)
	}
	out, err := b.SubmitMany(context.Background(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("got %d results", len(out))
	}
	for i, r := range out {
		if r.Labels[1] != int32(i+1) {
			t.Errorf("result %d has k=%d, want %d (misaligned)", i, r.Labels[1], i+1)
		}
	}
}

func TestBatcherContextCancellation(t *testing.T) {
	stub := newGatedStub(1)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, QueueCap: 8})
	defer b.Close()

	// Occupy the worker.
	go b.Submit(context.Background(), entry(1))
	<-stub.entered

	// Queue a request, then abandon it.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, entry(2))
		errc <- err
	}()
	waitFor(t, "request to queue", func() bool { return b.Stats().QueueDepth == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel = %v", err)
	}

	// Release the worker; the cancelled entry is skipped, not served.
	stub.release <- struct{}{}
	waitFor(t, "queue to drain", func() bool {
		st := b.Stats()
		return st.QueueDepth == 0 && st.Served == 1
	})
	if st := b.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}

	// The pipeline still serves.
	stubDone := make(chan struct{})
	go func() {
		<-stub.entered
		stub.release <- struct{}{}
		close(stubDone)
	}()
	if _, err := b.Submit(context.Background(), entry(3)); err != nil {
		t.Fatalf("Submit after cancellation: %v", err)
	}
	<-stubDone
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	stub := &stubPredictor{version: 2}
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 64})

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), entry(1)); err != nil {
				t.Errorf("Submit during drain: %v", err)
			}
		}()
	}
	// Close once everything is admitted: every queued request must still be
	// served (the drain contract), none dropped.
	waitFor(t, "all requests admitted", func() bool { return b.Stats().Admitted == 12 })
	b.Close()
	wg.Wait()

	if _, err := b.Submit(context.Background(), entry(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestSnapshotManager(t *testing.T) {
	a, b := &stubPredictor{version: 1}, &stubPredictor{version: 2}
	mgr := NewSnapshotManager(a)
	if mgr.Current().Version() != 1 || mgr.Swaps() != 0 {
		t.Fatalf("fresh manager: version %d, swaps %d", mgr.Current().Version(), mgr.Swaps())
	}
	mgr.Publish(b)
	if mgr.Current().Version() != 2 || mgr.Swaps() != 1 {
		t.Fatalf("after publish: version %d, swaps %d", mgr.Current().Version(), mgr.Swaps())
	}
	defer func() {
		if recover() == nil {
			t.Error("Publish(nil) did not panic")
		}
	}()
	mgr.Publish(nil)
}

// TestBatcherSnapshotSkewGuard covers the admission/flush skew defense: a
// request admitted under a wide-feature snapshot must fail with
// ErrSnapshotSkew — not panic the worker — when a narrower snapshot is
// published before its flush.
func TestBatcherSnapshotSkewGuard(t *testing.T) {
	wide := newGatedStub(1) // NumFeatures 1000
	mgr := NewSnapshotManager(wide)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, QueueCap: 8})
	defer b.Close()

	// Occupy the worker so the next request waits in the queue.
	go b.Submit(context.Background(), entry(1))
	<-wide.entered

	// Queue a request with an index valid for the wide snapshot only.
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(),
			slide.BatchEntry{Indices: []int32{500}, Values: []float32{1}, K: 1})
		errc <- err
	}()
	waitFor(t, "request to queue", func() bool { return b.Stats().QueueDepth == 1 })

	// Hot-swap to a snapshot with only 10 features, then release the worker.
	narrow := &stubPredictor{version: 2}
	narrowFeatures := 10
	mgr.Publish(&shrunkPredictor{stubPredictor: narrow, features: narrowFeatures})
	wide.release <- struct{}{}

	if err := <-errc; !errors.Is(err, ErrSnapshotSkew) {
		t.Fatalf("skewed request error = %v, want ErrSnapshotSkew", err)
	}
	waitFor(t, "failed counter", func() bool { return b.Stats().Failed == 1 })
}

// shrunkPredictor overrides the stub's feature space.
type shrunkPredictor struct {
	*stubPredictor
	features int
}

func (s *shrunkPredictor) NumFeatures() int { return s.features }

// TestBatcherRejectsInvalidEntriesAtAdmission pins the no-poisoning
// contract: a malformed entry is rejected before it can share a flush with
// valid concurrent requests.
func TestBatcherRejectsInvalidEntriesAtAdmission(t *testing.T) {
	stub := &stubPredictor{version: 4}
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 16})
	defer b.Close()

	ctx := context.Background()
	if _, err := b.Submit(ctx, slide.BatchEntry{Indices: []int32{1}, Values: []float32{1}, K: 0}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("k=0 entry: %v, want ErrInvalidEntry", err)
	}
	if _, err := b.Submit(ctx, slide.BatchEntry{Indices: []int32{1, 2}, Values: []float32{1}, K: 1}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("mismatched entry: %v, want ErrInvalidEntry", err)
	}
	// SubmitMany with one bad entry rejects the batch without serving it.
	if _, err := b.SubmitMany(ctx, []slide.BatchEntry{entry(1), {Indices: []int32{1}, Values: []float32{1}, K: -2}}); !errors.Is(err, ErrInvalidEntry) {
		t.Errorf("SubmitMany with bad entry: %v, want ErrInvalidEntry", err)
	}
	// Valid traffic still serves, and nothing was counted served/failed for
	// the rejects.
	if _, err := b.Submit(ctx, entry(2)); err != nil {
		t.Fatalf("valid entry after rejects: %v", err)
	}
	if st := b.Stats(); st.Failed != 0 || st.Served != 1 {
		t.Errorf("stats after rejects: %+v", st)
	}
}

// TestBatcherSubmitManyLargerThanQueue pins the waved-admission contract:
// a client batch bigger than the whole admission queue is still fully
// served on an otherwise idle batcher (in chunks), not permanently shed.
func TestBatcherSubmitManyLargerThanQueue(t *testing.T) {
	stub := &stubPredictor{version: 6}
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 8})
	defer b.Close()

	entries := make([]slide.BatchEntry, 50) // >> QueueCap
	for i := range entries {
		entries[i] = entry(1 + i%7)
	}
	out, err := b.SubmitMany(context.Background(), entries)
	if err != nil {
		t.Fatalf("oversized client batch: %v", err)
	}
	for i, r := range out {
		if r.Labels[1] != int32(1+i%7) {
			t.Fatalf("result %d misaligned: %+v", i, r)
		}
	}
}

// TestBatcherSnapshotSkewLabelShrink: an accepted k must never be silently
// clamped by a hot-swap to a smaller label space — it fails with
// ErrSnapshotSkew so the client revalidates.
func TestBatcherSnapshotSkewLabelShrink(t *testing.T) {
	wide := newGatedStub(1) // NumLabels 100
	mgr := NewSnapshotManager(wide)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, QueueCap: 8})
	defer b.Close()

	go b.Submit(context.Background(), entry(1))
	<-wide.entered

	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), entry(80)) // valid for 100 labels
		errc <- err
	}()
	waitFor(t, "request to queue", func() bool { return b.Stats().QueueDepth == 1 })
	mgr.Publish(&shrunkLabels{stubPredictor: &stubPredictor{version: 2}, labels: 50})
	wide.release <- struct{}{}

	if err := <-errc; !errors.Is(err, ErrSnapshotSkew) {
		t.Fatalf("label-shrunk request error = %v, want ErrSnapshotSkew", err)
	}
}

// shrunkLabels overrides the stub's label space.
type shrunkLabels struct {
	*stubPredictor
	labels int
}

func (s *shrunkLabels) NumLabels() int { return s.labels }

// panicPredictor panics on its first PredictEntries call, then behaves.
type panicPredictor struct {
	stubPredictor
	panicked atomic.Bool
}

func (p *panicPredictor) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	if p.panicked.CompareAndSwap(false, true) {
		panic("backend blew up")
	}
	return p.stubPredictor.PredictEntries(entries)
}

// TestBatcherContainsBackendPanic: a panicking backend fails its batch and
// is survived — submitters get an error, later traffic is served, Close
// does not deadlock.
func TestBatcherContainsBackendPanic(t *testing.T) {
	pp := &panicPredictor{stubPredictor: stubPredictor{version: 8}}
	mgr := NewSnapshotManager(pp)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 16})
	defer b.Close()

	if _, err := b.Submit(context.Background(), entry(1)); err == nil {
		t.Fatal("panicking flush returned no error")
	}
	if st := b.Stats(); st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
	// The worker survived: the next request is served normally.
	r, err := b.Submit(context.Background(), entry(2))
	if err != nil {
		t.Fatalf("request after contained panic: %v", err)
	}
	if r.Version != 8 {
		t.Errorf("post-panic result: %+v", r)
	}
}
