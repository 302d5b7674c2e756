package network

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/mem"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Sharded execution (Config.Shards > 0) replaces the HOGWILD sample-striped
// trainer with a deterministic scatter-gather engine. The label space is
// partitioned into S contiguous shards, each owning its rows' LSH tables,
// active-set budget, RNG stream, and gradient arena; a batch runs as a fixed
// sequence of barrier-separated phases whose tasks (samples or shards) are
// striped over a pool of pinned workers. Every reduction either targets
// worker-exclusive state (shard-owned rows), runs in a canonical fixed order
// (shard-ascending merges), or is elementwise over disjoint ranges (hidden
// backward tiles) — so the trained weights, checkpoints, and deltas are
// bit-identical for ANY worker count. The shard count S is a model property;
// the worker count W is purely an execution resource.

// shardPlan is the immutable shard geometry derived from a validated config:
// a balanced contiguous partition of the output rows, with the active-set
// budgets split proportionally. Pure function of the config — trainer,
// snapshots, and replicas derive identical plans.
type shardPlan struct {
	s      int
	bounds []int32 // len s+1; shard i owns rows [bounds[i], bounds[i+1])
	minAct []int   // per-shard random top-up floor (MinActive split)
	maxAct []int   // per-shard active cap (MaxActive split; 0 = uncapped)
}

func newShardPlan(cfg *Config) *shardPlan {
	s := cfg.Shards
	p := &shardPlan{
		s:      s,
		bounds: make([]int32, s+1),
		minAct: make([]int, s),
		maxAct: make([]int, s),
	}
	base, rem := cfg.OutputDim/s, cfg.OutputDim%s
	minBase, minRem := cfg.MinActive/s, cfg.MinActive%s
	maxBase, maxRem := cfg.MaxActive/s, cfg.MaxActive%s
	off := int32(0)
	for i := 0; i < s; i++ {
		p.bounds[i] = off
		w := base
		if i < rem {
			w++
		}
		off += int32(w)
		p.minAct[i] = minBase
		if i < minRem {
			p.minAct[i]++
		}
		if p.minAct[i] > w {
			p.minAct[i] = w // top-up cannot exceed the shard's width
		}
		if cfg.MaxActive > 0 {
			p.maxAct[i] = maxBase
			if i < maxRem {
				p.maxAct[i]++
			}
			if p.maxAct[i] < 1 {
				p.maxAct[i] = 1 // a cap of zero would drop labels
			}
		}
	}
	p.bounds[s] = off
	return p
}

// shardScratch is one shard's per-batch working set: the active ids and
// logit/gradient values per sample, and the shard's partial ∇h per sample.
// dhPart rows come from a per-shard arena (64-byte aligned, contiguous) so
// one shard's gradient traffic stays in one pinned core's private cache —
// the working set the plan sizes against platform.DetectTopology's L2.
type shardScratch struct {
	active  [][]int32   // [sample] global ids, labels first
	gz      [][]float32 // [sample] logits, then softmax grads, over active
	nLabels []int       // [sample] label entries at the head of active
	arena   *mem.Arena
	dhPart  [][]float32 // [sample][lastDim] partial ∇h, arena-backed
}

// shardState is the trainer-side sharded machinery hanging off a Network.
type shardState struct {
	plan    *shardPlan
	tables  []*lsh.TableSet // per-shard tables storing global row ids
	rngs    []*rand.Rand    // per-shard top-up streams (checkpointed)
	rngSrcs []*rand.PCG
	dedups  []*lsh.Dedup // per-shard, local-id (width-sized) stamps
	topo    platform.Topology
	pin     bool // pin pool workers to CPUs (hint; skipped on 1-CPU hosts)

	// Per-batch scratch, grown on demand and reused across batches.
	capB    int // sample capacity currently allocated
	xs      []sparse.Vector
	acts    [][][]float32 // [sample][layer]
	dhs     [][][]float32
	acts0   [][]float32 // acts[i][0] views (hidden backward)
	dhs0    [][]float32
	lastA   [][]float32 // acts[i][last] views (output phases)
	lastD   [][]float32
	hBF     [][]bf16.BF16
	hashes  [][]uint32 // [sample] one bucket hash per table
	losses  []float64
	actN    []int64
	nonFin  []int64     // [sample] health-guard non-finite counts
	labelLg [][]float32 // [sample] label-entry logits in canonical order

	shards []*shardScratch
}

func newShardState(cfg *Config, lastDim int) (*shardState, error) {
	plan := newShardPlan(cfg)
	sh := &shardState{plan: plan, topo: platform.DetectTopology()}
	// Pinning is a cache-affinity hint: useful when the pool fits the
	// machine, pointless on one CPU, harmful when oversubscribed.
	sh.pin = sh.topo.CPUs > 1 && cfg.Workers <= sh.topo.CPUs
	for s := 0; s < plan.s; s++ {
		ts, err := newTables(cfg, lastDim)
		if err != nil {
			return nil, err
		}
		// All shards share hasher/table seeds (splitSeed streams 3 and 4);
		// contents differ only by which rows each shard inserts, so a shard
		// table is a pure function of (bounds, weights) — replicas rebuild
		// identical sets from serialized buckets.
		sh.tables = append(sh.tables, ts)
		width := int(plan.bounds[s+1] - plan.bounds[s])
		sh.dedups = append(sh.dedups, lsh.NewDedup(max(width, 1)))
		// Stream 1<<40|s cannot collide with the legacy per-worker streams
		// (0..W-1) or any other splitSeed consumer.
		src := rand.NewPCG(splitSeed(cfg.Seed, 5), uint64(1)<<40|uint64(s))
		sh.rngSrcs = append(sh.rngSrcs, src)
		sh.rngs = append(sh.rngs, rand.New(src))
		sh.shards = append(sh.shards, &shardScratch{})
	}
	return sh, nil
}

// ensureBatch grows the per-batch scratch to hold b samples.
func (sh *shardState) ensureBatch(f *forwardState, b int) {
	if b <= sh.capB {
		return
	}
	nLayers := len(f.dims)
	for i := sh.capB; i < b; i++ {
		stack := make([][]float32, nLayers)
		dstack := make([][]float32, nLayers)
		for li, d := range f.dims {
			stack[li] = make([]float32, d)
			dstack[li] = make([]float32, d)
		}
		sh.acts = append(sh.acts, stack)
		sh.dhs = append(sh.dhs, dstack)
		sh.acts0 = append(sh.acts0, stack[0])
		sh.dhs0 = append(sh.dhs0, dstack[0])
		sh.lastA = append(sh.lastA, stack[nLayers-1])
		sh.lastD = append(sh.lastD, dstack[nLayers-1])
		if f.cfg.Precision != layer.FP32 { // BF16 modes need the packed view
			sh.hBF = append(sh.hBF, make([]bf16.BF16, f.lastDim))
		} else {
			sh.hBF = append(sh.hBF, nil)
		}
		sh.hashes = append(sh.hashes, make([]uint32, sh.tables[0].Tables()))
		sh.labelLg = append(sh.labelLg, nil)
	}
	sh.xs = make([]sparse.Vector, b)
	sh.losses = make([]float64, b)
	sh.actN = make([]int64, b)
	sh.nonFin = make([]int64, b)
	for s, ss := range sh.shards {
		for i := len(ss.active); i < b; i++ {
			ss.active = append(ss.active, make([]int32, 0, sh.plan.minAct[s]+8))
			ss.gz = append(ss.gz, nil)
		}
		ss.nLabels = make([]int, b)
		// One contiguous arena per shard keeps the shard's ∇h partials in
		// one aligned block (sized to the batch; compare sh.topo.L2Bytes
		// for whether a shard's slice stays cache-resident).
		ss.arena = mem.NewArena(b * f.lastDim)
		ss.dhPart = ss.dhPart[:0]
		for i := 0; i < b; i++ {
			ss.dhPart = append(ss.dhPart, ss.arena.Alloc(f.lastDim))
		}
	}
	sh.capB = b
}

// phaseCmd is one phase posted to a pool worker: run fn over tasks striped
// by worker index, then signal the barrier.
type phaseCmd struct {
	tasks int
	fn    func(task int)
	done  *sync.WaitGroup
}

// phasePool is a set of pinned OS-thread workers living for one TrainBatch
// call. Task t of a phase always runs on worker t mod W — a fixed static
// assignment, so cache affinity (shard s stays on one core across phases B,
// D, and the rebuild) comes for free. Created per batch: a persistent pool
// would leak locked OS threads, since Network has no Close.
type phasePool struct {
	cmds []chan phaseCmd
}

func newPhasePool(workers int, pin bool) *phasePool {
	p := &phasePool{cmds: make([]chan phaseCmd, workers)}
	ncpu := runtime.NumCPU()
	for w := range p.cmds {
		p.cmds[w] = make(chan phaseCmd, 8)
		go func(w int, c chan phaseCmd) {
			if pin {
				runtime.LockOSThread()
				// Pin failure (restricted cpuset, seccomp) is fine: the
				// worker just runs unpinned.
				_ = platform.PinThread(w % ncpu)
			}
			for cmd := range c {
				for t := w; t < cmd.tasks; t += workers {
					cmd.fn(t)
				}
				// Arrival at the phase barrier: the chaos hook stalls one
				// worker here to prove late arrival cannot tear a merge.
				_ = faultinject.Hit(faultinject.PointShardBarrier)
				cmd.done.Done()
			}
		}(w, p.cmds[w])
	}
	return p
}

// run executes one phase: fn(t) for every t in [0, tasks), striped over the
// workers, returning after all workers reach the barrier.
func (p *phasePool) run(tasks int, fn func(task int)) {
	var done sync.WaitGroup
	done.Add(len(p.cmds))
	for _, c := range p.cmds {
		c <- phaseCmd{tasks: tasks, fn: fn, done: &done}
	}
	done.Wait()
}

func (p *phasePool) close() {
	for _, c := range p.cmds {
		close(c)
	}
}

// trainBatchSharded is the deterministic sharded optimizer step. Phases:
//
//	A (per sample): forward stack; hash the last activation once.
//	B (per shard):  active-set selection (labels → LSH probe → top-up) and
//	                the active logits, into shard-private buffers.
//	C (per sample): canonical softmax merge across shards — max, Σexp, scale,
//	                label subtraction — in shard-ascending order.
//	D (per shard):  output-row gradient accumulation (rows shard-owned) and
//	                the shard's partial ∇h per sample.
//	E (per sample): ∇h = Σ_s partials, fixed shard order; then the middle
//	                stack backward (serial — stacked layers share gradient
//	                rows across samples).
//	F (per tile):   hidden backward over disjoint unit ranges; elementwise
//	                kernels make the per-scalar order sample-ascending
//	                regardless of tiling.
//	G:              ADAM (output per shard via ApplyAdamRange) and the
//	                per-shard table rebuild on schedule.
//
// Barriers separate the phases; nothing in any phase depends on how tasks
// interleave within it, so W only changes wall-clock, never bits.
func (n *Network) trainBatchSharded(b sparse.Batch) BatchStats {
	sh := n.sh
	plan := sh.plan
	S := plan.s
	B := b.Len()
	stats := BatchStats{Samples: B}
	ks := simd.Active()
	f := n.fwd
	sh.ensureBatch(f, B)
	for i := 0; i < B; i++ {
		sh.xs[i] = b.Sample(i)
	}

	nw := n.cfg.Workers
	pool := newPhasePool(nw, sh.pin)
	defer pool.close()

	// Phase A: forward every sample, hash its output-layer input once. All
	// shard hashers are seed-identical, so shard 0's is "the" hasher.
	pool.run(B, func(i int) {
		x := sh.xs[i]
		stack := sh.acts[i]
		f.hidden.Forward(ks, x, stack[0])
		for li, ml := range f.middle {
			ml.ForwardActive(ks, f.middleAll[li], stack[li], nil, stack[li+1])
			out := stack[li+1]
			for j := range out { // stacked layers are ReLU
				if out[j] < 0 {
					out[j] = 0
				}
			}
		}
		if sh.hBF[i] != nil {
			ks.PackBF16(sh.hBF[i], sh.lastA[i])
		}
		sh.tables[0].HashDense(sh.lastA[i], sh.hashes[i])
	})

	// Phase B: per-shard active sets and logits. Samples run in order inside
	// each shard, so the shard RNG consumption is a pure function of the
	// batch — independent of which worker executes the shard.
	pool.run(S, func(s int) {
		lo, hi := plan.bounds[s], plan.bounds[s+1]
		width := int(hi - lo)
		d := sh.dedups[s]
		rng := sh.rngs[s]
		ss := sh.shards[s]
		for i := 0; i < B; i++ {
			act := ss.active[i][:0]
			d.Begin()
			for _, y := range b.Labels(i) {
				if y >= lo && y < hi && !d.Seen(y-lo) {
					act = append(act, y)
				}
			}
			nLab := len(act)
			ss.nLabels[i] = nLab
			limit := plan.maxAct[s]
			if limit > 0 && nLab > limit {
				limit = nLab // labels always survive
			}
			act = sh.tables[s].Collect(sh.hashes[i], d, lo, act, limit)
			for len(act) < plan.minAct[s] {
				local := int32(rng.IntN(width))
				if !d.Seen(local) {
					act = append(act, lo+local)
				}
			}
			ss.active[i] = act
			gz := ss.gz[i]
			if cap(gz) < len(act) {
				gz = make([]float32, len(act))
			}
			gz = gz[:len(act)]
			f.output.ForwardActive(ks, act, sh.lastA[i], sh.hBF[i], gz)
			ss.gz[i] = gz
		}
	})

	// Phase C: canonical per-sample softmax merge. Every reduction walks
	// shards in ascending order, so the float accumulation order is fixed.
	pool.run(B, func(i int) {
		// Health guard: scan each shard's raw logits before the exp
		// transform overwrites them. Per-sample integer sum over per-shard
		// partials — a pure function of (weights at batch start, sample),
		// independent of which worker runs the merge.
		var bad int64
		if n.guards {
			for s := 0; s < S; s++ {
				bad += health.CountNonFinite32(sh.shards[s].gz[i])
			}
		}
		m := float32(math.Inf(-1))
		total := 0
		for s := 0; s < S; s++ {
			g := sh.shards[s].gz[i]
			if len(g) > 0 {
				if v := ks.Max(g); v > m {
					m = v
				}
				total += len(g)
			}
		}
		if total == 0 {
			sh.losses[i], sh.actN[i], sh.nonFin[i] = 0, 0, bad
			return
		}
		// Save the label-entry logits before the buffers are overwritten
		// with exp values (the loss needs raw logits after the z-sum).
		ll := sh.labelLg[i][:0]
		for s := 0; s < S; s++ {
			g := sh.shards[s].gz[i]
			ll = append(ll, g[:sh.shards[s].nLabels[i]]...)
		}
		sh.labelLg[i] = ll
		var z float64
		for s := 0; s < S; s++ {
			g := sh.shards[s].gz[i]
			for k, l := range g {
				e := math.Exp(float64(l - m))
				g[k] = float32(e)
				z += e
			}
		}
		invZ := float32(1 / z)
		for s := 0; s < S; s++ {
			if g := sh.shards[s].gz[i]; len(g) > 0 {
				ks.Scale(invZ, g)
			}
		}
		nLab := len(b.Labels(i))
		var t float32
		if nLab > 0 {
			t = 1 / float32(nLab)
		}
		logZ := math.Log(z) + float64(m)
		var loss float64
		p := 0
		for s := 0; s < S; s++ {
			g := sh.shards[s].gz[i]
			for k := 0; k < sh.shards[s].nLabels[i]; k++ {
				g[k] -= t
				loss -= float64(t) * (float64(ll[p]) - logZ)
				p++
			}
		}
		if n.guards && bad == 0 && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			bad = 1
		}
		sh.losses[i] = loss
		sh.actN[i] = int64(total)
		sh.nonFin[i] = bad
	})

	// Phase D: output gradients. Each shard owns its rows exclusively, and
	// samples run in order, so every weight-row accumulation has a fixed
	// order; ∇h partials land in shard-private arena rows.
	pool.run(S, func(s int) {
		ss := sh.shards[s]
		for i := 0; i < B; i++ {
			dhp := ss.dhPart[i]
			simd.Zero(dhp)
			n.output.AccumulateActive(ks, ss.active[i], ss.gz[i], sh.lastA[i], sh.hBF[i], dhp)
		}
	})

	// Phase E: reduce ∇h per sample in fixed shard order.
	pool.run(B, func(i int) {
		dh := sh.lastD[i]
		simd.Zero(dh)
		for s := 0; s < S; s++ {
			ks.Add(sh.shards[s].dhPart[i], dh)
		}
	})

	// Middle stack backward: stacked layers accumulate into gradient rows
	// shared across samples, so this stays serial (sample-ascending) — the
	// documented cost of determinism on deep stacks. The paper's
	// single-hidden-layer configurations skip this entirely.
	for i := 0; i < B; i++ {
		stack, dstack := sh.acts[i], sh.dhs[i]
		for li := len(n.middle) - 1; li >= 0; li-- {
			ml := n.middle[li]
			act, dh := stack[li+1], dstack[li+1]
			prev := dstack[li]
			simd.Zero(prev)
			for r := range dh {
				if act[r] <= 0 { // ReLU mask
					continue
				}
				if gz := dh[r]; gz != 0 {
					ml.Accumulate(ks, int32(r), gz, stack[li], nil, prev)
				}
			}
		}
	}

	// Phase F: hidden backward over disjoint unit tiles. Tile count follows
	// the worker count — safe, because the per-scalar accumulation order
	// inside BackwardBatchRange is sample-ascending for any tiling.
	tiles := min(nw, n.cfg.HiddenDim)
	per := (n.cfg.HiddenDim + tiles - 1) / tiles
	pool.run(tiles, func(t int) {
		lo := t * per
		hi := min(lo+per, n.cfg.HiddenDim)
		if lo < hi {
			n.hidden.BackwardBatchRange(ks, sh.xs[:B], sh.acts0, sh.dhs0, lo, hi)
		}
	})

	// Phase G: optimizer. Hidden/middle passes are per-column/per-row
	// independent (already worker-count-safe); the output steps per shard.
	n.step++
	p := simd.NewAdamParams(n.cfg.LR, n.cfg.Beta1, n.cfg.Beta2, n.cfg.Eps, n.step)
	n.hidden.ApplyAdam(ks, p, nw)
	for _, ml := range n.middle {
		ml.ApplyAdamAll(ks, p, nw)
	}
	pool.run(S, func(s int) {
		n.output.ApplyAdamRange(ks, p, int(plan.bounds[s]), int(plan.bounds[s+1]))
	})
	n.output.FinishAdam()

	n.sinceRebuild++
	if float64(n.sinceRebuild) >= n.rebuildPeriod {
		pool.run(S, func(s int) {
			sh.tables[s].RebuildRange(int(plan.bounds[s]), int(plan.bounds[s+1]),
				n.lastDim, n.output.RowF32, 1)
		})
		n.rebuildGen++
		n.sinceRebuild = 0
		n.rebuildPeriod *= n.cfg.RebuildGrowth
		stats.Rebuilt = true
	}

	for i := 0; i < B; i++ {
		stats.Loss += sh.losses[i]
		stats.ActiveSum += sh.actN[i]
		stats.NonFinite += sh.nonFin[i]
	}
	return stats
}

// rebuildShardTables re-hashes every shard's rows into fresh tables — the
// out-of-band rebuild used at construction and after deserialization.
// Shards fan out over the worker budget; each shard's content is
// independent of scheduling.
func (n *Network) rebuildShardTables() {
	sh := n.sh
	nw := min(n.cfg.Workers, sh.plan.s)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < sh.plan.s; s += nw {
				sh.tables[s].RebuildRange(int(sh.plan.bounds[s]), int(sh.plan.bounds[s+1]),
					n.lastDim, n.output.RowF32, 1)
			}
		}(w)
	}
	wg.Wait()
	n.rebuildGen++
}

// cloneShardTables deep-copies every shard's tables (snapshot publication).
func cloneShardTables(sets []*lsh.TableSet) []*lsh.TableSet {
	out := make([]*lsh.TableSet, len(sets))
	for i, ts := range sets {
		out[i] = ts.Clone()
	}
	return out
}

// ShardCount returns the configured shard count (0 = unsharded).
func (n *Network) ShardCount() int {
	if n.sh == nil {
		return 0
	}
	return n.sh.plan.s
}
