package slide

import (
	"context"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/platform"
)

// TestTrainerSteadyStateAllocs is the allocation gate of the training step:
// once the batch buffers, rebuild scratch and buckets have reached their
// working size, a Trainer.Run step — batch assembly, HOGWILD fan-out, Adam,
// the rebuild every few steps and the reshuffle at every epoch wrap — may
// leave at most 4 KB and 8 heap objects behind on average. Garbage per step
// is what made peak RSS grow with the step count.
func TestTrainerSteadyStateAllocs(t *testing.T) {
	const (
		batch        = 64
		rebuildEvery = 5
		maxBytes     = 4 << 10
		maxMallocs   = 8
	)
	if platform.RaceEnabled {
		t.Skip("HOGWILD accumulation races by design, and the detector's sync.Pool drops scratch at random")
	}
	train, _, err := Text8Like(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(train.Features(), 64, train.NumLabels(),
		WithSimHash(6, 10),
		WithLinearHidden(),
		WithActiveSet(16, 0),
		WithRebuildSchedule(rebuildEvery, 1),
		WithLearningRate(1e-3),
		WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(train, batch)
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := (train.Len() + batch - 1) / batch
	// Warm for two passes, then measure across at least one epoch wrap and
	// two rebuilds.
	warm := int64(2 * perEpoch)
	steps := int64(max(perEpoch+1, 2*rebuildEvery+1))

	var before, after runtime.MemStats
	tr, err := NewTrainer(m, src, WithEpochs(0), WithMaxSteps(warm+steps),
		WithOnBatch(func(e BatchEvent) {
			switch e.Step {
			case warm:
				runtime.ReadMemStats(&before)
			case warm + steps:
				runtime.ReadMemStats(&after)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs < 3 {
		t.Fatalf("session completed %d passes; the measured window must cross an epoch wrap", rep.Epochs)
	}
	bytesPerStep := float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
	mallocsPerStep := float64(after.Mallocs-before.Mallocs) / float64(steps)
	t.Logf("%d steps at GOMAXPROCS=%d: %.0f B and %.1f mallocs per step", steps, runtime.GOMAXPROCS(0), bytesPerStep, mallocsPerStep)
	if bytesPerStep > maxBytes || mallocsPerStep > maxMallocs {
		t.Errorf("steady-state step allocates %.0f B in %.1f objects, budget is %d B in %d",
			bytesPerStep, mallocsPerStep, maxBytes, maxMallocs)
	}
}
