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
	// per-worker scratch, allocated otherwise.
	sh      *shardState
	workers []*scratch
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
	opts := layer.Options{
		Precision: cfg.Precision,
		Placement: cfg.Placement,
		Locked:    cfg.Locked,
	}
	hOpts := opts
	hOpts.Seed = splitSeed(cfg.Seed, 1)
	oOpts := opts
	oOpts.Seed = splitSeed(cfg.Seed, 2)

	dims, lastDim, middleAll, all := forwardGeometry(cfg)
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
		all:       all,
	}
	n.live = newPredictor(n.fwd, splitSeed(cfg.Seed, 7))
	n.live.single = true

	// Engine selection: Shards > 0 is the phase engine (on one shard too),
	// 0 the HOGWILD one.
	if cfg.Shards > 0 {
		n.sh = newShardState(cfg, smp.plan)
	} else {
		n.workers = make([]*scratch, cfg.Workers)
		for w := range n.workers {
			n.workers[w] = n.fwd.newScratch(true, splitSeed(cfg.Seed, 5), uint64(w))
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
// all-rows index lists for the dense middle stack, and (under NoSampling)
// the full output index list. Pure function of the config — New and the
// replication base decode must derive identical geometry.
func forwardGeometry(cfg *Config) (dims []int, lastDim int, middleAll [][]int32, all []int32) {
	dims = append([]int{cfg.HiddenDim}, cfg.HiddenLayers...)
	lastDim = dims[len(dims)-1]
	for _, d := range dims[1:] {
		middleAll = append(middleAll, layer.Iota(d))
	}
	if cfg.NoSampling {
		all = layer.Iota(cfg.OutputDim)
	}
	return dims, lastDim, middleAll, all
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
// calls — the hook LR schedules drive. Not safe concurrently with training;
// call it between batches (the training-session engine does). The value is
// serialized with the checkpoint, but schedule-driven callers re-derive it
// from the step counter on resume, so a mid-schedule checkpoint restores
// correctly either way.
func (n *Network) SetLR(lr float64) {
	if lr > 0 {
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
// together with forwardState.forwardHidden, one body each. What differs
// between TrainBatch and trainBatchSharded is scheduling and ownership
// (sample-striped racy accumulation against barrier phases over shard-owned
// rows), whose RNG streams the top-up draws from, and whether the worker
// count is part of the checkpoint.

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

// labelHead is the loss of one sample: a numerically stable softmax over its
// active logits and the cross-entropy against a uniform target over its
// nTrue labels. The active set comes as an ordered list of parts — all of it
// from a HOGWILD worker, one part per shard from the phase engine — and every
// reduction walks the list in order, so the float accumulation order is fixed
// by the list alone. Part p carries heads[p] label entries at its head.
// grads, shaped like logits, receives the logit gradient (p − t at the label
// entries). Returns the loss over the label entries, log Z for a caller whose
// labels sit elsewhere, and (guards on) the count of non-finite logits.
func (n *Network) labelHead(ks *simd.Kernels, logits, grads [][]float32, heads []int, nTrue int) (loss, logZ float64, bad int64) {
	// Health guard: scan the raw logits — a poisoned weight or activation
	// lands here first, and the buffers are about to be consumed anyway, so
	// the scan rides hot cache lines.
	m := float32(math.Inf(-1))
	for _, lg := range logits {
		if n.guards {
			bad += health.CountNonFinite32(lg)
		}
		if len(lg) > 0 {
			m = max(m, ks.Max(lg))
		}
	}
	var z float64
	for p, lg := range logits {
		g := grads[p][:len(lg)]
		for k, l := range lg {
			e := math.Exp(float64(l - m))
			g[k] = float32(e)
			z += e
		}
	}
	invZ := float32(1 / z)
	logZ = math.Log(z) + float64(m)
	// Cross-entropy target: uniform over the sample's labels.
	var t float32
	if nTrue > 0 {
		t = 1 / float32(nTrue)
	}
	for p, g := range grads {
		if len(g) > 0 {
			ks.Scale(invZ, g)
		}
		for k, l := range logits[p][:heads[p]] {
			g[k] -= t
			loss -= float64(t) * (float64(l) - logZ)
		}
	}
	return loss, logZ, bad
}

// guardLoss counts a non-finite loss as one finding of the health guards
// unless the logit scan already has some.
func (n *Network) guardLoss(loss float64, bad int64) int64 {
	if n.guards && bad == 0 && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
		return 1
	}
	return bad
}

// stepDense opens the optimizer phase of a batch: it advances the step
// counter, derives the ADAM parameters and steps the hidden layer and the
// dense middle stack, passes that are per-column and per-row independent at
// any worker count. The caller steps the output layer with the parameters
// returned — over the touched rows, or shard by shard over the rows it owns.
func (n *Network) stepDense(ks *simd.Kernels) simd.AdamParams {
	n.step++
	p := simd.NewAdamParams(n.cfg.LR, n.cfg.Beta1, n.cfg.Beta2, n.cfg.Eps, n.step)
	n.hidden.ApplyAdam(ks, p, n.cfg.Workers)
	for _, ml := range n.middle {
		ml.ApplyAdamAll(ks, p, n.cfg.Workers) // dense stack: every row touched
	}
	return p
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

// trainSample processes one sample end to end (forward, sampled softmax,
// backward) and returns its loss, active-set size, and (guards on) the
// count of non-finite logits/losses the health scan found.
func (n *Network) trainSample(ws *scratch, x sparse.Vector, labels []int32) (float64, int, int64) {
	n.fwd.forwardStack(ws, x)

	var nLabels int
	var active []int32
	if n.cfg.NoSampling {
		// Every row is active, so the labels sit wherever their ids do:
		// stamp them here, find them by the stamps below.
		ws.dedup.Begin()
		for _, y := range labels {
			if int(y) < n.cfg.OutputDim {
				ws.dedup.Seen(y)
			}
		}
		active = n.fwd.all
	} else {
		nLabels = n.fwd.sampleActive(ws, labels)
		active = ws.active
	}
	na := len(active)
	if na == 0 {
		return 0, 0, 0
	}
	logits := ws.logits[:na]
	probs := ws.probs[:na]
	n.output.ForwardActive(ws.ks, active, ws.last(), ws.hBF, logits)

	// probs becomes the logit gradient (p - t at the labels), then the whole
	// active set goes backward in one walk.
	loss, logZ, bad := n.labelHead(ws.ks, [][]float32{logits}, [][]float32{probs}, []int{nLabels}, len(labels))
	if n.cfg.NoSampling && len(labels) > 0 {
		t := 1 / float32(len(labels))
		for k, id := range active {
			if ws.dedup.Seen(id) { // stamped above => true for labels
				probs[k] -= t
				loss -= float64(t) * (float64(logits[k]) - logZ)
			}
		}
	}
	simd.Zero(ws.dhLast())
	n.output.AccumulateActive(ws.ks, active, probs, ws.last(), ws.hBF, ws.dhLast())

	n.backwardMiddle(ws.ks, ws.acts, ws.dhs)
	n.hidden.Backward(ws.ks, x, ws.acts[0], ws.dhs[0])
	return loss, na, n.guardLoss(loss, bad)
}

// trainStripe runs worker w's share of a batch — samples w, w+nw, … — and
// leaves the share's loss, active-set and non-finite sums in the worker's
// scratch.
func (n *Network) trainStripe(ks *simd.Kernels, b sparse.Batch, w, nw int) {
	ws := n.workers[w]
	ws.ks = ks
	ws.loss, ws.activeSum, ws.nonFinite = 0, 0, 0
	for i := w; i < b.Len(); i += nw {
		l, na, bad := n.trainSample(ws, b.Sample(i), b.Labels(i))
		ws.loss += l
		ws.activeSum += int64(na)
		ws.nonFinite += bad
	}
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
// touched rows/columns. It then advances the hash-table rebuild schedule.
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
	n.fanout.Run(nw, func(w int) { n.trainStripe(ks, b, w, nw) })
	for _, ws := range n.workers[:nw] {
		stats.Loss += ws.loss
		stats.ActiveSum += ws.activeSum
		stats.NonFinite += ws.nonFinite
	}

	p := n.stepDense(ks)
	if n.cfg.NoSampling {
		n.output.ApplyAdamAll(ks, p, n.cfg.Workers)
	} else {
		n.output.ApplyAdam(ks, p, n.cfg.Workers)
	}
	stats.Rebuilt = n.advanceRebuild(n.fanout.Run)
	return stats
}

// applyPoison executes one fired poison rule. nan/inf plant the value in
// the hidden bias; gradscale scales the LR for exactly this step (the
// returned restore closure undoes it after ApplyAdam).
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
