package serving

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/slide-cpu/slide/slide"
)

// TestTrainerPublishesSnapshots: a Trainer session wired to a
// SnapshotManager via Publisher hot-swaps fresh versions on schedule while
// concurrent readers serve from whatever snapshot is current — the
// train-and-serve-from-one-object loop the session API exists for.
func TestTrainerPublishesSnapshots(t *testing.T) {
	train, _, err := slide.AmazonLike(1e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := slide.New(train.Features(), 16, train.NumLabels(),
		slide.WithDWTA(3, 8), slide.WithLearningRate(1e-3),
		slide.WithWorkers(1), slide.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewSnapshotManager(m.Snapshot())
	v0 := mgr.Current().Version()

	src, err := slide.NewDatasetSource(train, 32)
	if err != nil {
		t.Fatal(err)
	}
	const snapEvery = 4
	trainer, err := slide.NewTrainer(m, src,
		slide.WithEpochs(3),
		slide.WithSnapshots(snapEvery, Publisher(mgr)))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent readers predict from the manager during the whole session.
	stop := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	s := train.Sample(0)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := mgr.Current()
				if got := p.Predict(s.Indices, s.Values, 2); len(got) != 2 {
					t.Errorf("prediction of length %d from snapshot v%d", len(got), p.Version())
					return
				}
				served.Add(1)
			}
		}()
	}

	rep, err := trainer.Run(context.Background())
	// On a single-core box the readers may not have been scheduled during a
	// short session; give them a beat before stopping so the served counter
	// reflects real concurrent reads.
	for i := 0; i < 1000 && served.Load() == 0; i++ {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	wantSwaps := uint64(rep.Steps / snapEvery)
	if got := mgr.Swaps(); got != wantSwaps {
		t.Errorf("%d snapshot swaps, want %d (%d steps, every %d)",
			got, wantSwaps, rep.Steps, snapEvery)
	}
	cur := mgr.Current()
	if cur.Version() <= v0 {
		t.Errorf("current version %d not newer than initial %d", cur.Version(), v0)
	}
	// The last published snapshot is at most snapEvery-1 steps behind the
	// final model — freshness the /stats endpoint surfaces.
	if cur.Steps() < rep.Steps-snapEvery {
		t.Errorf("published snapshot at step %d, model finished at %d", cur.Steps(), rep.Steps)
	}
	if served.Load() == 0 {
		t.Error("no predictions served during training")
	}
}
