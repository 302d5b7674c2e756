package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
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

// Optimized is the paper's fully optimized SLIDE (host FP32: BF16 is a
// separate Table 3 variant, since widening bfloat16 rows into float32
// arithmetic saves no time without native BF16 dot products). Kernels resolve to the best CPUID-supported
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
	// MeanActive is the mean active-set size per sample.
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
	return runNetwork(w, v, opts, nil)
}

// RunDense trains the workload's own network with sampling off: the
// full-softmax baseline of Table 2 and Figure 6. It runs the Optimized
// variant with every output neuron active (NoSampling), so the gap between
// its row and Optimized SLIDE's is the sampling alone — the same engine and
// kernels with LSH on and off.
func RunDense(w *Workload, opts Options) (*RunResult, error) {
	v := Optimized
	v.Name = "Full softmax"
	return runNetwork(w, v, opts, func(c *network.Config) { c.NoSampling = true })
}

// runNetwork is the measured session every system trains through: it builds
// the workload's network for variant v, lets adjust edit the configuration
// (nil leaves it as the workload declares it), trains it in v's batch layout
// and evaluates its scores at the tracker's points and at the end.
func runNetwork(w *Workload, v Variant, opts Options, adjust func(*network.Config)) (*RunResult, error) {
	opts.defaults()
	prev := simd.CurrentMode()
	simd.SetMode(v.Kernels)
	defer simd.SetMode(prev)

	cfg := w.NetworkConfig(opts, v.Precision, v.Placement)
	if adjust != nil {
		adjust(&cfg)
	}
	if platform.RaceEnabled {
		cfg.Workers = 1 // several HOGWILD workers race by design; see platform.RaceEnabled
	}
	net, err := network.New(&cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
	}
	res := &RunResult{System: v.Name, Dataset: w.Name, Tracker: metrics.NewTracker(v.Name, w.Name)}
	scores := make([]float32, cfg.OutputDim)

	src, err := dataset.NewMemorySource(trainSlice(w.Train), w.Batch, v.BatchLayout)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
	}
	evalEvery := max(1, src.BatchesPerEpoch()/opts.EvalPointsPerEpoch)

	// Convergence tracking: TrainTime counts TrainBatch wall-clock only (data
	// loading and the evaluation below are excluded); loss is windowed
	// between evaluation points. Each pass is the historical epoch loop:
	// Reset(Step()+1), then Next until io.EOF.
	var lossSum float64
	var lossN int64
	var total network.BatchStats

	runtime.GC() // isolate this run from the previous system's garbage
	for e := 0; e < opts.Epochs; e++ {
		if err := src.Reset(uint64(net.Step()) + 1); err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
		}
		var epoch time.Duration
		for {
			b, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("harness: %s on %s: %w", v.Name, w.Name, err)
			}
			start := time.Now()
			st := net.TrainBatch(b)
			dt := time.Since(start)
			epoch += dt
			res.TrainTime += dt
			total.Samples += st.Samples
			total.ActiveSum += st.ActiveSum
			lossSum += st.Loss
			lossN += int64(st.Samples)
			if net.Step()%int64(evalEvery) == 0 {
				p1 := evalP1(scores, net.Scores, w.Test, opts.EvalSamples)
				res.Tracker.Record(metrics.Point{
					Elapsed: res.TrainTime, Epoch: e + 1, Batches: net.Step(),
					P1: p1, Loss: lossSum / float64(max(lossN, 1)),
				})
				lossSum, lossN = 0, 0
			}
		}
		if res.EpochTime == 0 || epoch < res.EpochTime {
			// Report the fastest epoch: first-epoch page faults, lazy
			// allocations and noisy neighbours inflate the mean on small
			// runs.
			res.EpochTime = epoch
		}
	}
	res.FinalP1 = evalP1(scores, net.Scores, w.Test, opts.EvalSamples)
	if last, ok := res.Tracker.Last(); ok {
		res.FinalLoss = last.Loss
	}
	if total.Samples > 0 {
		res.MeanActive = float64(total.ActiveSum) / float64(total.Samples)
	}
	return res, nil
}
