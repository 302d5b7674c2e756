package serving

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// TestBatcherSnapshotSwapUnderLoad hammers the batcher with 64 concurrent
// clients while the snapshot manager hot-swaps versions mid-flight, and
// asserts the torn/stale-free contract: every response carries the version
// of a published snapshot, and its labels are exactly what that snapshot's
// direct Predict returns for the request — a response can never mix weights
// from two snapshots or come from a version that was never published.
// Run under -race this also proves the swap path is data-race clean.
func TestBatcherSnapshotSwapUnderLoad(t *testing.T) {
	train, test, err := slide.AmazonLike(1e-9, 17)
	if err != nil {
		t.Fatal(err)
	}
	m, err := slide.New(train.Features(), 16, train.NumLabels(),
		slide.WithDWTA(3, 8),
		slide.WithLearningRate(0.05),
		slide.WithWorkers(1),
		slide.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the model at several training stages. Each version answers
	// at least some requests differently, so serving from a torn or
	// never-published predictor cannot masquerade as a valid response.
	const versions = 4
	preds := make([]*slide.Predictor, versions)
	for v := 0; v < versions; v++ {
		if err := trainEpoch(m, train, 32); err != nil {
			t.Fatal(err)
		}
		preds[v] = m.Snapshot()
	}

	// Fixed request set with mixed k, and the expected exact output of
	// every (version, request) pair.
	maxK := min(5, preds[0].NumLabels())
	nReq := 16
	if nReq > test.Len() {
		nReq = test.Len()
	}
	type req struct {
		entry slide.BatchEntry
	}
	reqs := make([]req, nReq)
	expected := make([][][]int32, versions)
	for v := range expected {
		expected[v] = make([][]int32, nReq)
	}
	for i := 0; i < nReq; i++ {
		s := test.Sample(i)
		reqs[i] = req{entry: slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: 1 + i%maxK}}
		for v := 0; v < versions; v++ {
			expected[v][i] = preds[v].Predict(s.Indices, s.Values, 1+i%maxK)
		}
	}
	byVersion := make(map[uint64]int, versions)
	for v, p := range preds {
		byVersion[p.Version()] = v
	}

	mgr := NewSnapshotManager(preds[0])
	b := NewBatcher(mgr, Config{Workers: 2, MaxBatch: 8, QueueCap: 1024})
	defer b.Close()

	// Publisher: swap snapshots as fast as the clients can observe them.
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mgr.Publish(preds[i%versions])
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const clients = 64
	const perClient = 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				i := (c + j) % nReq
				r, err := b.Submit(context.Background(), reqs[i].entry)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, j, err)
					return
				}
				v, ok := byVersion[r.Version]
				if !ok {
					t.Errorf("client %d: response claims never-published version %d", c, r.Version)
					return
				}
				want := expected[v][i]
				if len(r.Labels) != len(want) {
					t.Errorf("client %d req %d: version %d served %v, its direct Predict gives %v",
						c, i, r.Version, r.Labels, want)
					return
				}
				for x := range want {
					if r.Labels[x] != want[x] {
						t.Errorf("client %d req %d: version %d served %v, its direct Predict gives %v — torn or stale snapshot",
							c, i, r.Version, r.Labels, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()

	st := b.Stats()
	if st.Served != clients*perClient {
		t.Errorf("served %d of %d requests", st.Served, clients*perClient)
	}
	if mgr.Swaps() == 0 {
		t.Error("publisher never swapped — test exercised nothing")
	}
	t.Logf("served %d requests in %d batches (mean %.2f) across %d snapshot swaps",
		st.Served, st.Batches, st.MeanBatch, mgr.Swaps())
}
