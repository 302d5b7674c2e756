// Package network assembles the SLIDE system: a sparse-input hidden layer, a
// wide LSH-sampled output layer, HOGWILD-style asynchronous data-parallel
// training (§2), the adaptive hash-table rebuild schedule, and the sampled
// softmax-cross-entropy loss. The same engine runs as the full-softmax
// baseline when sampling is disabled.
package network

import (
	"fmt"
	"math"
	"runtime"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
)

// HashFamily selects the LSH family for output-layer sampling. Checkpoints
// and replication bases store its value, so DWTA stays 0 and SimHash 1; any
// other value (2 named a family since deleted) is refused on load.
type HashFamily int

const (
	// DWTA is densified winner-take-all hashing (paper: Amazon-670K,
	// WikiLSH-325K).
	DWTA HashFamily = iota
	// SimHash is signed random projection (paper: Text8).
	SimHash
)

// String implements fmt.Stringer.
func (h HashFamily) String() string {
	switch h {
	case DWTA:
		return "dwta"
	case SimHash:
		return "simhash"
	default:
		return "unknown"
	}
}

// Config describes a SLIDE network and its training regime. Zero values take
// the documented defaults via Validate.
type Config struct {
	// InputDim, HiddenDim, OutputDim give the network shape
	// (paper: hidden 128 for the XMC datasets, 200 for Text8).
	InputDim  int
	HiddenDim int
	OutputDim int
	// HiddenLayers optionally stacks additional dense hidden layers (ReLU,
	// FP32) between the first sparse-input layer and the sampled output,
	// giving Input → HiddenDim → HiddenLayers... → Output. The paper's
	// evaluation uses a single hidden layer (empty slice); deeper stacks are
	// the natural SLIDE extension.
	HiddenLayers []int
	// HiddenActivation is ReLU for classification, Linear for word2vec.
	// It applies to the first hidden layer; stacked layers are always ReLU.
	HiddenActivation layer.Activation

	// Hash selects the LSH family; K and L its shape (paper: DWTA K=6 L=400
	// for Amazon-670K, K=5 L=350 for WikiLSH-325K, SimHash K=9 L=50 for
	// Text8). BinSize is the DWTA bin width (default 8).
	Hash    HashFamily
	K, L    int
	BinSize int
	// BucketCap bounds each hash bucket (default 128); BucketPolicy is the
	// eviction rule (default FIFO).
	BucketCap    int
	BucketPolicy lsh.BucketPolicy
	// MinActive tops the sampled set up with random neurons (default 32);
	// MaxActive caps it, 0 = uncapped. Labels are never dropped.
	MinActive int
	MaxActive int
	// NoSampling disables LSH entirely: every neuron is active for every
	// sample (the full-softmax configuration).
	NoSampling bool
	// UniformSampling replaces LSH retrieval with uniform random negative
	// sampling of the same MinActive budget — the ablation that isolates
	// what *adaptive* (input-dependent) sampling buys over plain sampled
	// softmax. No hash tables are built.
	UniformSampling bool

	// Adam hyperparameters (defaults: LR 1e-4 as in §5.3, 0.9/0.999/1e-8).
	LR, Beta1, Beta2, Eps float64

	// Precision is the §4.4 quantization mode; Placement the §4.1 parameter
	// layout.
	Precision layer.Precision
	Placement layer.Placement
	// Workers is the HOGWILD thread count (default GOMAXPROCS); several
	// HOGWILD workers race on shared gradient rows by design, so a run that
	// must be race-clean or reproducible uses one worker or Shards. Under
	// sharded execution (Shards > 0) it is instead the size of the pinned
	// worker pool executing shard tasks.
	Workers int
	// Shards > 0 replaces HOGWILD sample-striping with the deterministic
	// sharded output layer: the label space is partitioned into Shards
	// contiguous row ranges, each with its own LSH tables, active-set
	// budget, RNG stream, and ∇h scratch. The shard count is a model
	// property — results, checkpoints, and deltas are bit-identical for any
	// Workers value, because workers merely execute the fixed shard task
	// list. 0 keeps the HOGWILD engine, whose tables are the one-shard case
	// of the same layout. Requires LSH sampling (incompatible with
	// NoSampling / UniformSampling); clamped to OutputDim.
	Shards int

	// RebuildEvery is the initial hash-table rebuild period in batches
	// (default 50); RebuildGrowth stretches the period multiplicatively
	// after each rebuild (default 1.05, SLIDE's exponential backoff).
	RebuildEvery  int
	RebuildGrowth float64

	// Seed drives all randomness (init, hashing, sampling).
	Seed uint64
}

// Validate fills defaults and reports configuration errors.
func (c *Config) Validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.OutputDim <= 0 {
		return fmt.Errorf("network: dimensions must be positive (got %d/%d/%d)",
			c.InputDim, c.HiddenDim, c.OutputDim)
	}
	for i, d := range c.HiddenLayers {
		if d <= 0 {
			return fmt.Errorf("network: hidden layer %d has non-positive width %d", i+1, d)
		}
	}
	// The enumerations arrive as raw integers from a checkpoint or a
	// replication base; the layer constructors panic on ones they do not know.
	if c.Precision < layer.FP32 || c.Precision > layer.BF16Both || c.Placement < layer.Contiguous || c.Placement > layer.Scattered ||
		c.HiddenActivation < layer.ReLU || c.HiddenActivation > layer.Linear || c.BucketPolicy < lsh.FIFO || c.BucketPolicy > lsh.Reservoir {
		return fmt.Errorf("network: unknown precision (%d), placement (%d), hidden activation (%d) or bucket policy (%d)",
			int(c.Precision), int(c.Placement), int(c.HiddenActivation), int(c.BucketPolicy))
	}
	if c.NoSampling && c.UniformSampling {
		return fmt.Errorf("network: NoSampling and UniformSampling are mutually exclusive")
	}
	if !c.NoSampling && !c.UniformSampling {
		if c.K <= 0 || c.L <= 0 {
			return fmt.Errorf("network: LSH sampling requires K>0 and L>0 (got K=%d L=%d)", c.K, c.L)
		}
	}
	if c.BinSize == 0 {
		c.BinSize = 8
	}
	if c.BucketCap == 0 {
		c.BucketCap = 128
	}
	if c.BucketCap < 0 {
		return fmt.Errorf("network: BucketCap must be positive, got %d", c.BucketCap)
	}
	if c.MinActive == 0 {
		c.MinActive = 32
	}
	if c.MinActive > c.OutputDim {
		c.MinActive = c.OutputDim
	}
	if c.MaxActive < 0 || (c.MaxActive > 0 && c.MaxActive < c.MinActive) {
		return fmt.Errorf("network: MaxActive %d conflicts with MinActive %d", c.MaxActive, c.MinActive)
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	// Written so that NaN fails every test: a checkpoint's or a replication
	// base's config arrives through here too.
	if !(c.LR > 0 && !math.IsInf(c.LR, 1)) || !(c.Beta1 >= 0 && c.Beta1 < 1) || !(c.Beta2 >= 0 && c.Beta2 < 1) ||
		!(c.Eps > 0 && !math.IsInf(c.Eps, 1)) {
		return fmt.Errorf("network: invalid optimizer hyperparameters (lr=%g b1=%g b2=%g eps=%g)",
			c.LR, c.Beta1, c.Beta2, c.Eps)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RebuildEvery <= 0 {
		c.RebuildEvery = 50
	}
	if c.RebuildGrowth == 0 {
		c.RebuildGrowth = 1.05
	}
	if !(c.RebuildGrowth >= 1 && !math.IsInf(c.RebuildGrowth, 1)) {
		return fmt.Errorf("network: RebuildGrowth must be finite and >= 1, got %g", c.RebuildGrowth)
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: Shards must be non-negative, got %d", c.Shards)
	}
	if c.Shards > 0 && (c.NoSampling || c.UniformSampling) {
		return fmt.Errorf("network: sharded execution requires LSH sampling")
	}
	if c.Shards > c.OutputDim {
		c.Shards = c.OutputDim
	}
	return nil
}
