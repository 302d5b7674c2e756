package network

import (
	"math"

	"github.com/slide-cpu/slide/internal/fanout"
	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Network is a two-layer SLIDE model: sparse input → hidden (ColLayer,
// Algorithm 2) → wide output (RowLayer, Algorithm 1) with LSH-sampled
// softmax cross-entropy.
//
// The network owns the mutable training state (layers with gradients and
// optimizer moments, the rebuild schedule). Everything the forward pass
// reads lives in a forwardState (see forward.go): training consumes the
// live one, and Snapshot copies it into an immutable Predictor for
// concurrency-safe serving.
type Network struct {
	cfg    Config
	hidden *layer.ColLayer
	middle []*layer.RowLayer // optional dense hidden stack (cfg.HiddenLayers)
	output *layer.RowLayer
	// smp is the live LSH sampler (sampler.go): the sets the rebuild schedule
	// rewrites and fwd probes.
	smp *sampler

	// fwd is the live read-only view consumed by the training forward pass
	// and the single-threaded inference compatibility path.
	fwd *forwardState
	// live serves Scores/Predict/PredictSampled over fwd. Like every read
	// of the live weights, it must not run concurrently with TrainBatch —
	// Snapshot is the concurrency-safe path.
	live *Predictor

	// lastDim is the width of the activation feeding the output layer.
	lastDim int

	step          int64 // Adam step counter (batches)
	sinceRebuild  int
	rebuildPeriod float64

	// Delta-tracking state (EnableDeltaTracking): layer touch journals
	// accumulate between snapshots, lastSnap remembers the previous
	// snapshot's views for copy-on-write sharing, and rebuildGen counts
	// table rebuilds so a delta ships tables only when they changed.
	deltas      bool
	lastSnap    *forwardState
	lastStep    int64
	rebuildGen  uint64
	lastSnapGen uint64

	// sh is the phase engine's state (sharded.go), non-nil exactly when
	// cfg.Shards > 0 selects that engine; workers is the HOGWILD engine's
	// per-worker state (stripe.go), allocated otherwise.
	sh      *shardState
	workers []*worker
	fanout  fanout.Group // HOGWILD's sample fan-out; the out-of-band rebuild's

	// guards enables the per-step NaN/Inf scan of active-set logits and
	// per-sample losses (SetGuards): BatchStats.NonFinite reports what the
	// scan found. Runtime state, not a Config field — it never changes the
	// math or the checkpoint format, only what TrainBatch observes.
	guards bool
}

// New builds a SLIDE network from cfg (validated and defaulted in place) and
// hashes its freshly initialised output rows into the tables.
func New(cfg *Config) (*Network, error) {
	n, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if n.smp.sampled() {
		n.rebuildTables(n.fanout.Run)
	}
	return n, nil
}

// build is New up to, and without, the first table rebuild: a network whose
// tables are still empty, for New to fill from the weights and Load from the
// checkpoint.
func build(cfg *Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts := layer.Options{Precision: cfg.Precision, Placement: cfg.Placement}
	hOpts := opts
	hOpts.Seed = splitSeed(cfg.Seed, 1)
	oOpts := opts
	oOpts.Seed = splitSeed(cfg.Seed, 2)

	dims, lastDim, middleAll := forwardGeometry(cfg)
	n := &Network{
		cfg:           *cfg,
		hidden:        layer.NewColLayer(cfg.InputDim, cfg.HiddenDim, cfg.HiddenActivation, hOpts),
		output:        layer.NewRowLayer(lastDim, cfg.OutputDim, oOpts),
		lastDim:       lastDim,
		rebuildPeriod: float64(cfg.RebuildEvery),
	}
	// Stacked dense hidden layers stay FP32: the quantization modes target
	// the memory-bound wide layers, not the small dense middle (§4.4).
	for i := 1; i < len(dims); i++ {
		mOpts := opts
		mOpts.Seed = splitSeed(cfg.Seed, 16+uint64(i))
		mOpts.Precision = layer.FP32
		n.middle = append(n.middle, layer.NewRowLayer(dims[i-1], dims[i], mOpts))
	}

	smp, err := newSampler(cfg, lastDim)
	if err != nil {
		return nil, err
	}
	n.smp = smp

	// The live forward view: layer views alias the training weights, so
	// every ApplyAdam is visible to the next forward pass.
	var middleViews []*layer.RowWeights
	for _, ml := range n.middle {
		middleViews = append(middleViews, ml.ForwardView())
	}
	n.fwd = &forwardState{
		cfg:       *cfg,
		hidden:    n.hidden.ForwardView(),
		middle:    middleViews,
		output:    n.output.ForwardView(),
		smp:       smp,
		middleAll: middleAll,
		dims:      dims,
		lastDim:   lastDim,
	}
	n.live = newPredictor(n.fwd, splitSeed(cfg.Seed, 7))
	n.live.single = true

	// Engine selection: Shards > 0 is the phase engine (on one shard too),
	// 0 the HOGWILD one.
	if cfg.Shards > 0 {
		n.sh = newShardState(cfg, smp.plan)
	} else {
		n.workers = make([]*worker, cfg.Workers)
		for w := range n.workers {
			n.workers[w] = &worker{lane: newLane(cfg.OutputDim, splitSeed(cfg.Seed, 5), uint64(w))}
		}
	}
	return n, nil
}

func splitSeed(seed uint64, stream uint64) uint64 {
	x := seed ^ stream*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// forwardGeometry computes the derived index structures of a validated
// config: the hidden-stack dims, the width feeding the output layer, the
// all-rows index lists for the dense middle stack. Pure function of the
// config — New and the replication base decode must derive identical
// geometry.
func forwardGeometry(cfg *Config) (dims []int, lastDim int, middleAll [][]int32) {
	dims = append([]int{cfg.HiddenDim}, cfg.HiddenLayers...)
	lastDim = dims[len(dims)-1]
	for _, d := range dims[1:] {
		middleAll = append(middleAll, layer.Iota(d))
	}
	return dims, lastDim, middleAll
}

// Config returns the validated configuration.
func (n *Network) Config() Config { return n.cfg }

// Hidden returns the hidden layer (diagnostics, tests).
func (n *Network) Hidden() *layer.ColLayer { return n.hidden }

// Output returns the output layer (diagnostics, tests).
func (n *Network) Output() *layer.RowLayer { return n.output }

// Tables returns the LSH table set of an un-sharded model, or nil when
// sampling is disabled or the model is sharded (Shards > 0).
func (n *Network) Tables() *lsh.TableSet {
	if n.cfg.Shards > 0 || !n.smp.sampled() {
		return nil
	}
	return n.smp.sets[0]
}

// Step returns the number of optimizer steps (batches) applied so far.
func (n *Network) Step() int64 { return n.step }

// SetLR changes the ADAM learning rate applied by subsequent TrainBatch
// calls — the hook LR schedules drive. A rate that is not finite and
// positive is ignored. Not safe concurrently with training;
// call it between batches (slide.Trainer's session loop does). The value is
// serialized with the checkpoint, but schedule-driven callers re-derive it
// from the step counter on resume, so a mid-schedule checkpoint restores
// correctly either way.
func (n *Network) SetLR(lr float64) {
	if lr > 0 && !math.IsInf(lr, 1) {
		n.cfg.LR = lr
	}
}

// SetGuards toggles the numerical health guards: with guards on, every
// TrainBatch counts the non-finite values among its active-set logits and
// per-sample losses into BatchStats.NonFinite. The scan is O(active set)
// integer compares over data the forward pass just produced — well under
// 1% of TrainBatch — and the count is an order-independent sum of
// per-sample verdicts, each a pure function of (weights at batch start,
// sample), so it is bit-identical at any worker count in both engines.
// Guards off (the default) cost nothing. Not safe concurrently with
// training; call between batches.
func (n *Network) SetGuards(on bool) { n.guards = on }

// rebuildTables re-hashes every output neuron into fresh tables, the sets
// fanned out over run (see sampler.rebuild).
func (n *Network) rebuildTables(run func(n int, task func(w int))) {
	n.smp.rebuild(n.lastDim, n.output.RowF32, n.cfg.Workers, run)
	n.rebuildGen++
}

// What follows is the per-sample and per-batch math both engines run —
// together with forwardState.forwardHidden, the active-set selection
// (forwardState.pick, run by a lane over its stripe under a budget: the
// whole layer's for a HOGWILD worker, sampler.shard(s)'s for shard s) and the
// per-sample state (samples), one body each. What differs between TrainBatch
// and trainBatchSharded is scheduling and ownership (sample-striped racy
// accumulation against barrier phases over shard-owned rows), which budget
// each lane picks under and whose RNG stream its top-up draws from, and
// whether the worker count is part of the checkpoint.

// backwardMiddle propagates dhs[last] down the middle stack, accumulating
// the stacked layers' gradients, and leaves the first hidden layer's
// activation gradient in dhs[0].
func (n *Network) backwardMiddle(ks *simd.Kernels, acts, dhs [][]float32) {
	for i := len(n.middle) - 1; i >= 0; i-- {
		ml := n.middle[i]
		act, dh := acts[i+1], dhs[i+1]
		prev := dhs[i]
		simd.Zero(prev)
		for r := range dh {
			if act[r] <= 0 { // ReLU mask
				continue
			}
			if gz := dh[r]; gz != 0 {
				ml.Accumulate(ks, int32(r), gz, acts[i], nil, prev)
			}
		}
	}
}

// labelHead is the loss of sample i: a numerically stable softmax over its
// active logits and the cross-entropy against a uniform target over its
// nTrue labels. The active set comes as an ordered list of stripes, the
// sample's part of each — a HOGWILD worker's one stripe, or one per shard
// from the phase engine — and every reduction walks the list in order, so
// the float accumulation order is fixed by the list alone. Each part carries
// its heads[i] label entries at its head, and its grads receive the logit
// gradient (p − t at the label entries). Returns the loss over the label
// entries and (guards on) the count of non-finite logits.
func (n *Network) labelHead(ks *simd.Kernels, parts []*stripe, i, nTrue int) (loss float64, bad int64) {
	// Health guard: scan the raw logits — a poisoned weight or activation
	// lands here first, and the buffers are about to be consumed anyway, so
	// the scan rides hot cache lines.
	m := float32(math.Inf(-1))
	for _, s := range parts {
		lg := s.logits[s.offs[i]:s.offs[i+1]]
		if n.guards {
			bad += health.CountNonFinite32(lg)
		}
		if len(lg) > 0 {
			m = max(m, ks.Max(lg))
		}
	}
	// exp(l − m) into the grads and onto z, part after part in index order.
	// A NaN logit makes z NaN, so every output of the sample is NaN on every
	// tier, whatever Max made of it.
	var z float64
	for _, s := range parts {
		lo, hi := s.offs[i], s.offs[i+1]
		z = ks.ExpSum(s.logits[lo:hi], m, s.grads[lo:hi], z)
	}
	invZ := float32(1 / z)
	logZ := math.Log(z) + float64(m)
	// Cross-entropy target: uniform over the sample's labels.
	var t float32
	if nTrue > 0 {
		t = 1 / float32(nTrue)
	}
	for _, s := range parts {
		lo, hi := s.offs[i], s.offs[i+1]
		g := s.grads[lo:hi]
		if len(g) > 0 {
			ks.Scale(invZ, g)
		}
		for k, l := range s.logits[lo : lo+int32(s.heads[i])] {
			g[k] -= t
			loss -= float64(t) * (float64(l) - logZ)
		}
	}
	return loss, bad
}

// guardLoss counts a non-finite loss as one finding of the health guards
// unless the logit scan already has some.
func (n *Network) guardLoss(loss float64, bad int64) int64 {
	if n.guards && bad == 0 && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
		return 1
	}
	return bad
}

// adamParams derives the ADAM parameters of the batch in flight, step
// n.step+1, before the output walk: a walk that owns its rows steps them.
func (n *Network) adamParams() simd.AdamParams {
	return simd.NewAdamParams(n.cfg.LR, n.cfg.Beta1, n.cfg.Beta2, n.cfg.Eps, n.step+1)
}

// stepDense closes a batch's optimizer phase after backward: it steps the
// hidden layer and the dense middle stack with p, passes that are per-column
// and per-row independent at any worker count, and advances the step
// counter. The output layer is stepped inside its owning walks, or by
// ApplyAdam under HOGWILD at W > 1.
func (n *Network) stepDense(ks *simd.Kernels, p simd.AdamParams) {
	n.step++
	n.hidden.ApplyAdam(ks, p, n.cfg.Workers)
	for _, ml := range n.middle {
		ml.ApplyAdamAll(ks, p, n.cfg.Workers) // dense stack: every row touched
	}
}

// advanceRebuild closes a batch: it advances the table rebuild schedule and,
// when a rebuild is due, runs it over run and stretches the period. Reports
// whether the tables were rebuilt.
func (n *Network) advanceRebuild(run func(n int, task func(w int))) bool {
	if !n.smp.sampled() {
		return false
	}
	n.sinceRebuild++
	if float64(n.sinceRebuild) < n.rebuildPeriod {
		return false
	}
	n.rebuildTables(run)
	n.sinceRebuild = 0
	n.rebuildPeriod *= n.cfg.RebuildGrowth
	return true
}

// BatchStats reports one TrainBatch call.
type BatchStats struct {
	// Samples is the number of samples processed.
	Samples int
	// Loss is the summed sampled-softmax cross-entropy.
	Loss float64
	// ActiveSum is the total active-set size across samples; ActiveSum /
	// Samples is the mean sparsity the LSH sampling achieved.
	ActiveSum int64
	// NonFinite counts the NaN/Inf logits and losses the health guards
	// found in this batch (always zero with guards off — see SetGuards).
	// An order-independent sum of per-sample counts: bit-identical at any
	// worker count.
	NonFinite int64
	// Rebuilt reports whether the hash tables were rebuilt after this batch.
	Rebuilt bool
}

// TrainBatch runs one HOGWILD-parallel gradient step over the batch:
// workers process samples concurrently against shared parameters, gradients
// accumulate into per-layer buffers, and one fused ADAM step applies to the
// touched rows/columns: inside the output walk when one worker owns every
// row, after backward (ApplyAdam) when several share them. It then advances
// the hash-table rebuild schedule.
func (n *Network) TrainBatch(b sparse.Batch) BatchStats {
	// Numeric-poison drill: a nan/inf rule plants a non-finite hidden bias
	// (feeding every unit, so the very next forward pass is non-finite for
	// every sample at any worker count), a gradscale rule scales this one
	// step's learning rate. No-op single atomic load when nothing is armed.
	if act, row, f, ok := faultinject.Poison(faultinject.PointTrainBatch); ok {
		if restore := n.applyPoison(act, row, f); restore != nil {
			defer restore()
		}
	}
	if n.sh != nil {
		return n.trainBatchSharded(b)
	}
	stats := BatchStats{Samples: b.Len()}
	// Resolve the kernel table once for the whole batch: every kernel call
	// below goes through it, one atomic mode load per batch.
	ks := simd.Active()
	// Worker w takes samples w, w+nw, …; partial sums land in the workers'
	// own scratch and are folded in worker order, so the fan-out shares
	// nothing.
	nw := min(n.cfg.Workers, b.Len())
	p := n.adamParams()
	n.fanout.Run(nw, func(w int) { n.trainStripe(ks, b, w, nw, p) })
	for _, ws := range n.workers[:nw] {
		stats.Loss += ws.loss
		stats.ActiveSum += ws.activeSum
		stats.NonFinite += ws.nonFinite
	}

	n.stepDense(ks, p)
	if nw > 1 {
		n.output.ApplyAdam(ks, p, n.cfg.Workers)
	}
	stats.Rebuilt = n.advanceRebuild(n.fanout.Run)
	return stats
}

// applyPoison executes one fired poison rule. nan/inf plant the value in
// the hidden bias; gradscale scales the LR for exactly this step (the
// returned restore closure undoes it after the batch).
func (n *Network) applyPoison(action string, row int, factor float64) func() {
	switch action {
	case "nan", "inf":
		n.hidden.PoisonBias(row, layer.PoisonValue(action))
	case "gradscale":
		old := n.cfg.LR
		n.cfg.LR *= factor
		return func() { n.cfg.LR = old }
	}
	return nil
}

// Scores computes the full output-layer logits for one sample into out
// (len OutputDim) — the exact forward pass over the live weights, through
// the same walk and ranking a Snapshot serves with. Not safe for concurrent
// use with training; serve from Snapshot for that.
func (n *Network) Scores(x sparse.Vector, out []float32) { n.live.Scores(x, out) }

// Predict returns the top-k scoring label ids for one sample, highest first.
// Not safe for concurrent use with training; serve from Snapshot for that.
func (n *Network) Predict(x sparse.Vector, k int) []int32 { return n.live.Predict(x, k) }

// Evaluate returns mean Precision@k over the first cnt samples of b on the
// live weights. Not safe for concurrent use with training.
func (n *Network) Evaluate(b sparse.Batch, cnt, k int) float64 { return n.live.Evaluate(b, cnt, k) }

// PredictSampled returns the top-k label ids ranked only over the LSH-
// retrieved candidate set — sub-linear inference, the deployment-time
// counterpart of SLIDE's sampled training. Returns ErrNoSampling under
// NoSampling/UniformSampling (full Predict is the right call there).
// Not safe for concurrent use with training; serve from Snapshot for that.
func (n *Network) PredictSampled(x sparse.Vector, k int) ([]int32, error) {
	return n.live.PredictSampled(x, k)
}
