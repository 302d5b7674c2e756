package harness

import (
	"fmt"
	"runtime"

	"github.com/slide-cpu/slide/internal/costmodel"
	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/network"
)

// Options configures a harness run.
type Options struct {
	// Scale shrinks the paper's datasets (default 0.01; 1.0 = full size,
	// which needs a machine comparable to the paper's servers).
	Scale float64
	// Epochs per measured run (default 2).
	Epochs int
	// EvalPointsPerEpoch sets convergence-curve density (default 3).
	EvalPointsPerEpoch int
	// EvalSamples bounds the held-out evaluation slice (default 200).
	EvalSamples int
	// Workers for training (default GOMAXPROCS).
	Workers int
	// Seed drives dataset generation and training.
	Seed uint64
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.Epochs <= 0 {
		o.Epochs = 2
	}
	if o.EvalPointsPerEpoch <= 0 {
		o.EvalPointsPerEpoch = 3
	}
	if o.EvalSamples <= 0 {
		o.EvalSamples = 200
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Workload is one benchmark dataset plus its (scaled) training
// configuration and the full-scale statistics for the cost-model rows.
type Workload struct {
	Name  string
	Train *dataset.Dataset
	Test  *dataset.Dataset

	Hash         network.HashFamily
	K, L         int
	BinSize      int
	Hidden       int
	Batch        int
	LR           float64
	HiddenAct    layer.Activation
	MinActive    int
	RebuildEvery int

	// Full carries the paper-scale statistics (Table 1) used by the
	// roofline estimator for cross-platform rows; MeanActive is filled at
	// run time from the measured active fraction.
	Full costmodel.Workload
}

// scaleInt shrinks a paper-scale hyperparameter with a floor.
func scaleInt(full int, scale float64, floor int) int {
	n := int(float64(full) * scale)
	if n < floor {
		n = floor
	}
	return n
}

// Workloads builds the paper's three benchmarks at opts.Scale. Hash shapes
// are scaled alongside the label space (the paper's L=400 tables at 2^18
// buckets only pay off at 670K labels); hidden widths and optimizers stay
// paper-faithful.
func Workloads(opts Options) ([]*Workload, error) {
	opts.defaults()
	var ws []*Workload

	// Amazon-670K: hidden 128, batch 1024, Adam 1e-4, DWTA K=6 L=400 (§5.3).
	amzCfg := dataset.Amazon670K(opts.Scale, opts.Seed)
	amzTrain, amzTest, err := dataset.Generate(amzCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: amazon generation: %w", err)
	}
	ws = append(ws, &Workload{
		Name: "Amazon-670K", Train: amzTrain, Test: amzTest,
		Hash: network.DWTA, K: 4, L: scaleInt(400, opts.Scale*4, 12), BinSize: 8,
		Hidden: 128, Batch: scaleInt(1024, opts.Scale*25, 64), LR: 1e-4,
		HiddenAct: layer.ReLU, MinActive: 48, RebuildEvery: 20,
		Full: costmodel.Workload{
			Samples: 490449, FeatureNNZ: 75, Input: 135909, Hidden: 128,
			Output: 670091, BatchSize: 1024, L: 400, K: 6, BinSize: 8, RebuildPeriod: 50,
		},
	})

	// WikiLSH-325K: hidden 128, batch 256, DWTA K=5 L=350 (§5.3).
	wikiCfg := dataset.WikiLSH325K(opts.Scale, opts.Seed+1)
	wikiTrain, wikiTest, err := dataset.Generate(wikiCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: wiki generation: %w", err)
	}
	ws = append(ws, &Workload{
		Name: "WikiLSH-325K", Train: wikiTrain, Test: wikiTest,
		Hash: network.DWTA, K: 4, L: scaleInt(350, opts.Scale*4, 12), BinSize: 8,
		Hidden: 128, Batch: scaleInt(256, opts.Scale*25, 64), LR: 1e-4,
		HiddenAct: layer.ReLU, MinActive: 48, RebuildEvery: 20,
		Full: costmodel.Workload{
			Samples: 1778351, FeatureNNZ: 42, Input: 1617899, Hidden: 128,
			Output: 325056, BatchSize: 256, L: 350, K: 5, BinSize: 8, RebuildPeriod: 50,
		},
	})

	// Text8 word2vec: hidden 200, batch 512, SimHash K=9 L=50 (§5.3).
	t8Cfg := dataset.Text8(opts.Scale, opts.Seed+2)
	t8Train, t8Test, err := dataset.GenerateText8(t8Cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: text8 generation: %w", err)
	}
	ws = append(ws, &Workload{
		Name: "Text8", Train: t8Train, Test: t8Test,
		Hash: network.SimHash, K: 7, L: scaleInt(50, opts.Scale*20, 10),
		Hidden: 200, Batch: scaleInt(512, opts.Scale*25, 64), LR: 1e-4,
		HiddenAct: layer.Linear, MinActive: 48, RebuildEvery: 20,
		Full: costmodel.Workload{
			Samples: 13604165, FeatureNNZ: 1, Input: 253855, Hidden: 200,
			Output: 253855, BatchSize: 512, L: 50, K: 9, SimHash: true, RebuildPeriod: 50,
		},
	})
	return ws, nil
}

// NetworkConfig builds the SLIDE configuration for this workload.
func (w *Workload) NetworkConfig(opts Options, prec layer.Precision, place layer.Placement) network.Config {
	opts.defaults()
	return network.Config{
		InputDim:         w.Train.Features,
		HiddenDim:        w.Hidden,
		OutputDim:        w.Train.Labels,
		HiddenActivation: w.HiddenAct,
		Hash:             w.Hash,
		K:                w.K,
		L:                w.L,
		BinSize:          w.BinSize,
		MinActive:        w.MinActive,
		LR:               w.LR,
		Precision:        prec,
		Placement:        place,
		Workers:          opts.Workers,
		RebuildEvery:     w.RebuildEvery,
		Seed:             opts.Seed,
	}
}
