package slide

import (
	"context"
	"runtime"
	"runtime/debug"
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

// TestPredictAllocs pins what the serving docs promise — steady-state exact
// serving allocates only its result slices: Predict one object (the label
// list), PredictEntries of 32 entries 35 (the 32 label lists, their outer
// slice, and the two engine input slices the entries are rendered as) plus
// one spare, from an f32 snapshot and from an int8 one alike — at GOMAXPROCS
// 1, 2 and 4, since a walk that fanned out per call would pay per goroutine.
// (Before the one walk these were 1, 40 and 43.)
func TestPredictAllocs(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("the detector's sync.Pool drops scratch at random")
	}
	train, _, err := AmazonLike(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(train.Features(), 32, train.NumLabels(), WithDWTA(3, 8), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainEpoch(train, 64); err != nil {
		t.Fatal(err)
	}
	f32 := m.Snapshot()
	int8, err := f32.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]BatchEntry, 32)
	for i := range entries {
		s := train.Sample(i)
		entries[i] = BatchEntry{Indices: s.Indices, Values: s.Values, K: 1 + i%5}
	}
	// mallocs averages heap objects per call, rounded down as
	// testing.AllocsPerRun does (which cannot be used: it pins GOMAXPROCS to
	// 1), with the collector off so a cycle cannot empty the scratch pools
	// inside the measured window.
	mallocs := func(call func()) uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 100
		call() // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			name            string
			p               *Predictor
			single, batch32 uint64
		}{{"f32", f32, 1, 36}, {"int8", int8, 1, 36}} {
			e := entries[0]
			if got := mallocs(func() { c.p.Predict(e.Indices, e.Values, 5) }); got > c.single {
				t.Errorf("GOMAXPROCS=%d %s: Predict allocates %d objects, budget %d", procs, c.name, got, c.single)
			}
			if got := mallocs(func() {
				if _, err := c.p.PredictEntries(entries); err != nil {
					t.Fatal(err)
				}
			}); got > c.batch32 {
				t.Errorf("GOMAXPROCS=%d %s: PredictEntries(32) allocates %d objects, budget %d", procs, c.name, got, c.batch32)
			}
		}
	}
}
