package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/slide"
)

// fixture is one dataset and model shape. The slide options and the
// network.Config the layer probes build from are both derived from these
// fields, so the probed network is the benchmarked network.
type fixture struct {
	name        string
	train, test *slide.Dataset
	// internal generates the same data again as internal/dataset values,
	// which the layer probes need and a slide.Dataset does not expose.
	internal  func() (train, test *dataset.Dataset, err error)
	hidden    int
	linear    bool // linear hidden layer (word2vec shape); default ReLU
	hash      network.HashFamily
	k, l      int
	minActive int
	batch     int
	lr        float64
	// evalSamples is how many held-out samples an accuracy figure averages
	// over: enough that its sampling error is well under the metric's bound.
	evalSamples int
	// p1Floor is the accuracy every fixed-budget evaluation must reach:
	// far above chance, so no accuracy figure ever comes from an untrained
	// model. Not asserted at smoke size.
	p1Floor float64
}

// rebuildEvery is the hash-table rebuild period in steps, held constant
// (growth 1) so that every block of a training window, a multiple of it
// long, carries the same share of rebuilds.
const rebuildEvery = 20

// amazonS is the extreme-classification shape: ~2.7k sparse features,
// ~13k labels, active set below 1% of the output layer.
func amazonS(seed uint64, smoke bool) (*fixture, error) {
	scale := 0.02
	if smoke {
		scale = 0.002
	}
	train, test, err := slide.AmazonLike(scale, seed)
	if err != nil {
		return nil, err
	}
	return &fixture{name: "amazon-s", train: train, test: test, hidden: 128,
		internal: func() (*dataset.Dataset, *dataset.Dataset, error) {
			return dataset.Generate(dataset.Amazon670K(scale, seed))
		},
		hash: network.DWTA, k: 4, l: 32, minActive: 48, batch: 256, lr: 1e-3, evalSamples: test.Len(), p1Floor: 0.5}, nil
}

// text8S is the word2vec shape: one-hot inputs over a ~5k vocabulary, a
// linear hidden layer, and a much denser active set.
func text8S(seed uint64, smoke bool) (*fixture, error) {
	scale := 0.02
	if smoke {
		scale = 0.001
	}
	train, test, err := slide.Text8Like(scale, seed+2)
	if err != nil {
		return nil, err
	}
	// At this rate p@1 after the fixed step budget sits within a few percent
	// across seeds; at 1e-3 it is still on the steep part of the curve and
	// differs by a third between corpora.
	f := &fixture{name: "text8-s", train: train, test: test, hidden: 200, linear: true,
		internal: func() (*dataset.Dataset, *dataset.Dataset, error) {
			return dataset.GenerateText8(dataset.Text8(scale, seed+2))
		},
		hash: network.SimHash, k: 7, l: 20, minActive: 32, batch: 256, lr: 5e-3, evalSamples: min(test.Len(), 12000)}
	f.p1Floor = 20 / float64(train.NumLabels()) // 20x chance
	return f, nil
}

func (f *fixture) modelOptions(seed uint64, workers, shards int) []slide.Option {
	opts := []slide.Option{
		slide.WithSeed(seed), slide.WithWorkers(workers),
		slide.WithLearningRate(f.lr),
		slide.WithRebuildSchedule(rebuildEvery, 1),
		slide.WithActiveSet(f.minActive, 0),
	}
	if f.hash == network.SimHash {
		opts = append(opts, slide.WithSimHash(f.k, f.l))
	} else {
		opts = append(opts, slide.WithDWTA(f.k, f.l))
	}
	if f.linear {
		opts = append(opts, slide.WithLinearHidden())
	}
	if shards > 0 {
		opts = append(opts, slide.WithShards(shards))
	}
	return opts
}

// netConfig is modelOptions for code that builds a network.Network
// directly (the layer probes).
func (f *fixture) netConfig(seed uint64, workers, shards int) network.Config {
	c := network.Config{
		InputDim: f.train.Features(), HiddenDim: f.hidden, OutputDim: f.train.NumLabels(),
		Hash: f.hash, K: f.k, L: f.l, MinActive: f.minActive,
		LR: f.lr, RebuildEvery: rebuildEvery, RebuildGrowth: 1,
		Workers: workers, Shards: shards, Seed: seed,
	}
	if f.linear {
		c.HiddenActivation = layer.Linear
	}
	return c
}

func (f *fixture) newModel(seed uint64, workers, shards int) (*slide.Model, error) {
	m, err := slide.New(f.train.Features(), f.hidden, f.train.NumLabels(), f.modelOptions(seed, workers, shards)...)
	// Collect once the model stands. Go lets the heap reach twice what the
	// last collection left, and where the collections fall while the dataset
	// and the weights are being allocated differs from run to run; collecting
	// here starts training from the same point of that cycle every time, which
	// takes peak RSS of the training workloads from +-8 % to +-3 %.
	runtime.GC()
	return m, err
}

// pretrain runs steps optimizer steps through slide.Trainer. A non-finite
// loss is an error.
func (f *fixture) pretrain(m *slide.Model, steps int) error {
	src, err := slide.NewDatasetSource(f.train, f.batch)
	if err != nil {
		return err
	}
	finite := true
	tr, err := slide.NewTrainer(m, src, slide.WithEpochs(0), slide.WithMaxSteps(m.Steps()+int64(steps)),
		slide.WithOnBatch(func(e slide.BatchEvent) {
			finite = finite && !math.IsNaN(e.Stats.MeanLoss) && !math.IsInf(e.Stats.MeanLoss, 0)
		}))
	if err != nil {
		return err
	}
	if _, err := tr.Run(context.Background()); err != nil {
		return err
	}
	if !finite {
		return fmt.Errorf("non-finite loss while pre-training %s", f.name)
	}
	return nil
}

// assertTrained refuses a serving fixture whose exact p@1 on held-out
// samples is below the floor: accuracy is never compared on an untrained
// model.
func (f *fixture) assertTrained(p *slide.Predictor, smoke bool) error {
	p1, err := p.Evaluate(f.test, 500, 1)
	if err != nil {
		return err
	}
	if !smoke && p1 < f.p1Floor {
		return fmt.Errorf("%s fixture reached p@1 %.3f after %d steps, floor %.2f", f.name, p1, p.Steps(), f.p1Floor)
	}
	return nil
}

// hit reports whether the first (best) label is one of the true labels.
func hit(top []int32, truth []int32) bool {
	if len(top) == 0 {
		return false
	}
	for _, y := range truth {
		if y == top[0] {
			return true
		}
	}
	return false
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 3

// repeatSetup runs build setupReps times (once when tracing, whose set-up
// time is not reported), tearing down all but the last instance, and
// returns the last instance with the median build time in seconds. Each
// build is followed by reference slices, which set-up time is corrected by.
func repeatSetup[T any](c *runConfig, ref *reference, build func() (T, error), teardown func(T)) (T, float64, error) {
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
			var zero T
			last = zero
			// Repeating set-up is the harness's doing; collect what the
			// previous instance left so peak RSS stays that of one instance.
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
		ref.run(refSetupSlices)
	}
	return last, median(times), nil
}
