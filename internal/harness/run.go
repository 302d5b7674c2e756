package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/fullsoftmax"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/internal/train"
)

// Variant names one measured SLIDE configuration: which §4 optimizations
// are switched on.
type Variant struct {
	Name string
	// Kernels selects vector (AVX substitute) or scalar mode (§4.2).
	Kernels simd.Mode
	// Placement is the parameter layout (§4.1).
	Placement layer.Placement
	// BatchLayout is the input-data layout (§4.1).
	BatchLayout sparse.Layout
	// Precision is the §4.4 quantization mode.
	Precision layer.Precision
}

// Optimized is the paper's fully optimized SLIDE (host FP32: software BF16
// is a separate Table 3 variant, since it costs rather than saves time
// without hardware support). Kernels resolve to the best CPUID-supported
// tier — the assembly backend on AVX hosts, the portable vector kernels
// elsewhere.
var Optimized = Variant{
	Name:        "Optimized SLIDE",
	Kernels:     simd.Best(),
	Placement:   layer.Contiguous,
	BatchLayout: sparse.Coalesced,
	Precision:   layer.FP32,
}

// Naive reproduces the original SLIDE implementation: scalar kernels,
// fragmented parameters and batch data.
var Naive = Variant{
	Name:        "Naive SLIDE",
	Kernels:     simd.Scalar,
	Placement:   layer.Scattered,
	BatchLayout: sparse.Fragmented,
	Precision:   layer.FP32,
}

// RunResult reports one measured training run.
type RunResult struct {
	System  string
	Dataset string
	// TrainTime is total training wall-clock (evaluation excluded);
	// EpochTime is the fastest single epoch, which filters first-epoch
	// warm-up and scheduler noise on small runs.
	TrainTime time.Duration
	EpochTime time.Duration
	FinalP1   float64
	FinalLoss float64
	// MeanActive is the mean active-set size per sample (SLIDE runs).
	MeanActive float64
	Tracker    *metrics.Tracker
}

// trainSamples bounds the per-epoch sample count so harness runs stay
// tractable at any scale.
const maxTrainSamples = 6000

func trainSlice(d *dataset.Dataset) *dataset.Dataset {
	if d.Len() > maxTrainSamples {
		return d.Head(maxTrainSamples)
	}
	return d
}

// evalP1 measures mean P@1 with the given scorer over the test head.
func evalP1(scores []float32, scorer func(sparse.Vector, []float32), test *dataset.Dataset, samples int) float64 {
	n := min(samples, test.Len())
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		scorer(test.Sample(i), scores)
		sum += metrics.PrecisionAtK(scores, test.LabelsOf(i), 1)
	}
	return sum / float64(n)
}

// RunSLIDE trains the workload with the given SLIDE variant and returns
// measurements. Kernel mode is process-global; runs execute serially.
func RunSLIDE(w *Workload, v Variant, opts Options) (*RunResult, error) {
	opts.defaults()
	prev := simd.CurrentMode()
	simd.SetMode(v.Kernels)
	defer simd.SetMode(prev)

	cfg := w.NetworkConfig(opts, v.Precision, v.Placement)
	if platform.RaceEnabled {
		cfg.Locked = true // defined behaviour under -race; see platform.RaceEnabled
	}
	net, err := network.New(&cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
	}

	trainSet := trainSlice(w.Train)
	res := &RunResult{System: v.Name, Dataset: w.Name,
		Tracker: metrics.NewTracker(v.Name, w.Name)}
	scores := make([]float32, cfg.OutputDim)

	src, err := dataset.NewMemorySource(trainSet, w.Batch, v.BatchLayout)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
	}
	evalEvery := max(1, src.BatchesPerEpoch()/opts.EvalPointsPerEpoch)

	// Convergence tracking: elapsed counts TrainBatch wall-clock only
	// (BatchInfo.TrainTime excludes data loading, hooks and the evaluation
	// below); loss is windowed between evaluation points.
	var elapsed time.Duration
	var lossSum float64
	var lossN int64

	runtime.GC() // isolate this run from the previous system's garbage
	rep, err := train.Run(context.Background(), net, src, train.Config{
		Epochs: opts.Epochs,
		// Keep the harness's historical per-epoch seeding (measurement runs
		// reproduce across harness versions); the default Step()+1 rule is
		// the public Trainer behaviour.
		SeedFunc: func(pass int, _ int64) uint64 { return opts.Seed + uint64(pass) },
		Hooks: train.Hooks{
			OnBatch: func(bi train.BatchInfo) {
				elapsed += bi.TrainTime
				lossSum += bi.Stats.Loss
				lossN += int64(bi.Stats.Samples)
				if bi.Step%int64(evalEvery) == 0 {
					p1 := evalP1(scores, net.Scores, w.Test, opts.EvalSamples)
					res.Tracker.Record(metrics.Point{
						Elapsed: elapsed, Epoch: bi.Epoch + 1, Batches: bi.Step,
						P1: p1, Loss: lossSum / float64(max64(lossN, 1)),
					})
					lossSum, lossN = 0, 0
				}
			},
			OnEpoch: func(ei train.EpochInfo) {
				if res.EpochTime == 0 || ei.TrainTime < res.EpochTime {
					// Report the fastest epoch: first-epoch page faults, lazy
					// allocations and noisy neighbours inflate the mean on
					// small runs.
					res.EpochTime = ei.TrainTime
				}
			},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
	}
	res.TrainTime = rep.TrainTime
	res.FinalP1 = evalP1(scores, net.Scores, w.Test, opts.EvalSamples)
	if last, ok := res.Tracker.Last(); ok {
		res.FinalLoss = last.Loss
	}
	if rep.Stats.Samples > 0 {
		res.MeanActive = float64(rep.Stats.ActiveSum) / float64(rep.Stats.Samples)
	}
	return res, nil
}

// RunDense trains the workload with the dense full-softmax baseline.
func RunDense(w *Workload, opts Options) (*RunResult, error) {
	opts.defaults()
	prev := simd.CurrentMode()
	simd.SetMode(simd.Best()) // TF baselines use the best vector tier (AVX)
	defer simd.SetMode(prev)

	cfg := fullsoftmax.Config{
		InputDim:         w.Train.Features,
		HiddenDim:        w.Hidden,
		OutputDim:        w.Train.Labels,
		HiddenActivation: w.HiddenAct,
		LR:               w.LR,
		Workers:          opts.Workers,
		Seed:             opts.Seed,
	}
	tr, err := fullsoftmax.New(&cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: dense baseline on %s: %w", w.Name, err)
	}

	trainSet := trainSlice(w.Train)
	const name = "TF FullSoftmax"
	res := &RunResult{System: name, Dataset: w.Name,
		Tracker: metrics.NewTracker(name, w.Name), MeanActive: float64(cfg.OutputDim)}
	scores := make([]float32, cfg.OutputDim)

	src, err := dataset.NewMemorySource(trainSet, w.Batch, sparse.Coalesced)
	if err != nil {
		return nil, fmt.Errorf("harness: dense baseline on %s: %w", w.Name, err)
	}
	evalEvery := max(1, src.BatchesPerEpoch()/opts.EvalPointsPerEpoch)

	var elapsed time.Duration
	var lossSum float64
	var lossN int64

	runtime.GC()
	rep, err := train.Run(context.Background(), denseStepper{tr}, src, train.Config{
		Epochs:   opts.Epochs,
		SeedFunc: func(pass int, _ int64) uint64 { return opts.Seed + uint64(pass) },
		Hooks: train.Hooks{
			OnBatch: func(bi train.BatchInfo) {
				elapsed += bi.TrainTime
				lossSum += bi.Stats.Loss
				lossN += int64(bi.Stats.Samples)
				if bi.Step%int64(evalEvery) == 0 {
					p1 := evalP1(scores, tr.Scores, w.Test, opts.EvalSamples)
					res.Tracker.Record(metrics.Point{
						Elapsed: elapsed, Epoch: bi.Epoch + 1, Batches: bi.Step,
						P1: p1, Loss: lossSum / float64(max64(lossN, 1)),
					})
					lossSum, lossN = 0, 0
				}
			},
			OnEpoch: func(ei train.EpochInfo) {
				if res.EpochTime == 0 || ei.TrainTime < res.EpochTime {
					res.EpochTime = ei.TrainTime
				}
			},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: dense baseline on %s: %w", w.Name, err)
	}
	res.TrainTime = rep.TrainTime
	res.FinalP1 = evalP1(scores, tr.Scores, w.Test, opts.EvalSamples)
	if last, ok := res.Tracker.Last(); ok {
		res.FinalLoss = last.Loss
	}
	return res, nil
}

// denseStepper adapts the full-softmax baseline trainer to the session
// engine's Stepper contract (its stats carry no active-set counts — every
// output neuron is always active).
type denseStepper struct {
	t *fullsoftmax.Trainer
}

// TrainBatch implements train.Stepper.
func (d denseStepper) TrainBatch(b sparse.Batch) network.BatchStats {
	st := d.t.TrainBatch(b)
	return network.BatchStats{
		Samples: st.Samples, Loss: st.Loss,
		ActiveSum: int64(st.Samples) * int64(d.t.Config().OutputDim),
	}
}

// Step implements train.Stepper.
func (d denseStepper) Step() int64 { return d.t.Step() }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
