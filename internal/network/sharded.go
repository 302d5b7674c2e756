package network

import (
	"math/rand/v2"
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/mem"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Sharded execution (Config.Shards > 0) replaces the HOGWILD sample-striped
// trainer with a deterministic scatter-gather engine. The label space is
// partitioned into S contiguous shards, each owning its rows' LSH tables,
// active-set budget, RNG stream, and ∇h scratch; a batch runs as a fixed
// sequence of barrier-separated phases whose tasks (samples or shards) are
// striped over a pool of pinned workers. Every reduction either targets
// worker-exclusive state (shard-owned rows), runs in a canonical fixed order
// (shard-ascending merges), or is elementwise over disjoint ranges (hidden
// backward tiles) — so the trained weights, checkpoints, and deltas are
// bit-identical for ANY worker count. The shard count S is a model property;
// the worker count W is purely an execution resource.

// shardScratch is one shard's per-batch working set: its output walk over
// the whole batch — every sample's active ids among the shard's rows, labels
// first, and their logits and gradients — and the shard's partial ∇h per
// sample. dhPart rows are views into one 64-byte-aligned block per shard, so
// one shard's gradient traffic is one contiguous stretch on its pinned core.
type shardScratch struct {
	stripe
	dhPart [][]float32 // [sample][lastDim] partial ∇h, one contiguous block
}

// shardState is the phase engine's machinery hanging off a Network; the
// shard geometry and the per-shard tables are the network's sampler.
type shardState struct {
	rngs    []*rand.Rand // per-shard top-up streams (checkpointed)
	rngSrcs []*rand.PCG
	dedups  []*lsh.Dedup // per-shard, local-id (width-sized) stamps
	pin     bool         // pin pool workers to CPUs (hint; skipped on 1-CPU hosts)

	// Per-batch scratch, grown on demand and reused across batches.
	capB   int // sample capacity currently allocated
	xs     []sparse.Vector
	acts   [][][]float32 // [sample][layer]
	dhs    [][][]float32
	acts0  [][]float32 // acts[i][0] views (hidden backward)
	dhs0   [][]float32
	lastA  [][]float32 // acts[i][last] views (output phases)
	lastD  [][]float32
	hashes []uint32 // sample i's bucket hash per table at [i·L, (i+1)·L)
	losses []float64
	nonFin []int64 // [sample] health-guard non-finite counts

	shards []*shardScratch
	parts  []*stripe // the shards' stripes in shard order: labelHead's parts
}

func newShardState(cfg *Config, plan *shardPlan) *shardState {
	// Pinning is a cache-affinity hint: useful when the pool fits the
	// machine, pointless on one CPU, harmful when oversubscribed.
	ncpu := runtime.NumCPU()
	sh := &shardState{pin: ncpu > 1 && cfg.Workers <= ncpu}
	for s := 0; s < plan.s; s++ {
		width := int(plan.bounds[s+1] - plan.bounds[s])
		sh.dedups = append(sh.dedups, lsh.NewDedup(max(width, 1)))
		// Stream 1<<40|s cannot collide with the HOGWILD per-worker streams
		// (0..W-1) or any other splitSeed consumer.
		src := rand.NewPCG(splitSeed(cfg.Seed, 5), uint64(1)<<40|uint64(s))
		sh.rngSrcs = append(sh.rngSrcs, src)
		sh.rngs = append(sh.rngs, rand.New(src))
		ss := &shardScratch{}
		sh.shards = append(sh.shards, ss)
		sh.parts = append(sh.parts, &ss.stripe)
	}
	return sh
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
	}
	sh.hashes = make([]uint32, b*f.smp.tables())
	sh.xs = make([]sparse.Vector, b)
	sh.losses = make([]float64, b)
	sh.nonFin = make([]int64, b)
	for _, ss := range sh.shards {
		ss.dhPart, _ = mem.Contiguous2D(b, f.lastDim)
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
//	A (per tile):   forward stack; hash the last activations once, one
//	                HashDenseMany per tile of simd.WalkTile samples.
//	B (per shard):  active-set selection (labels → LSH probe → top-up) for
//	                every sample, then the shard's output walk (stripe.plan,
//	                stripe.forward) for the active logits, into the shard's
//	                stripe.
//	C (per sample): the label head (labelHead) over the shards' stripes —
//	                max, Σexp, scale, label subtraction — in shard order.
//	D (per shard):  the walk's backward: output-row gradient accumulation
//	                (rows shard-owned) and the shard's partial ∇h per sample.
//	E (per sample): ∇h = Σ_s partials, fixed shard order; then the middle
//	                stack backward (serial — stacked layers share gradient
//	                rows across samples).
//	F (per tile):   hidden backward over disjoint unit ranges; elementwise
//	                kernels make the per-scalar order sample-ascending
//	                regardless of tiling.
//	G:              ADAM (output per shard via ApplyAdamRange) and the
//	                table rebuild on schedule, the sets striped over the pool.
//
// Barriers separate the phases; nothing in any phase depends on how tasks
// interleave within it, so W only changes wall-clock, never bits.
func (n *Network) trainBatchSharded(b sparse.Batch) BatchStats {
	sh := n.sh
	f := n.fwd
	smp, plan := n.smp, n.smp.plan
	S := plan.s
	B := b.Len()
	stats := BatchStats{Samples: B}
	ks := simd.Active()
	sh.ensureBatch(f, B)
	for i := 0; i < B; i++ {
		sh.xs[i] = b.Sample(i)
	}

	nw := n.cfg.Workers
	pool := newPhasePool(nw, sh.pin)
	defer pool.close()

	// Phase A: forward every sample, hash its output-layer input once —
	// a tile of samples per task, hashed together.
	L := smp.tables()
	pool.run((B+simd.WalkTile-1)/simd.WalkTile, func(t int) {
		lo, hi := t*simd.WalkTile, min((t+1)*simd.WalkTile, B)
		for i := lo; i < hi; i++ {
			f.forwardHidden(ks, sh.xs[i], sh.acts[i])
		}
		smp.hashMany(sh.lastA[lo:hi], sh.hashes[lo*L:hi*L])
	})

	// Phase B: per-shard active sets and logits. Samples run in order inside
	// each shard, so the shard RNG consumption is a pure function of the
	// batch — independent of which worker executes the shard. Each shard
	// fills its own budget (the plan's split of MinActive/MaxActive) from its
	// own set: unlike sampleActive's one budget over all sets, what a shard
	// selects never depends on what another found. The shard's walk then
	// starts at its first row, so a row-major walk sums each ∇h partial in
	// an order fixed by the shard count alone.
	pool.run(S, func(s int) {
		lo, hi := plan.bounds[s], plan.bounds[s+1]
		width := int(hi - lo)
		d := sh.dedups[s]
		rng := sh.rngs[s]
		ss := sh.shards[s]
		// Sized before the fill: a batch larger than the last one would
		// index past offs otherwise.
		ss.offs, ss.heads = fit(ss.offs, B+1), fit(ss.heads, B)
		act := ss.ids[:0]
		for i := 0; i < B; i++ {
			start := len(act)
			d.Begin()
			for _, y := range b.Labels(i) {
				if y >= lo && y < hi && !d.Seen(y-lo) {
					act = append(act, y)
				}
			}
			nLab := len(act) - start
			limit := plan.maxAct[s]
			if limit > 0 {
				limit = start + max(limit, nLab) // labels always survive
			}
			act = smp.sets[s].Collect(sh.hashes[i*L:(i+1)*L], d, lo, act, limit)
			for len(act)-start < plan.minAct[s] {
				local := int32(rng.IntN(width))
				if !d.Seen(local) {
					act = append(act, lo+local)
				}
			}
			ss.heads[i], ss.offs[i+1] = nLab, int32(len(act))
		}
		ss.ids = act
		ss.plan(int(hi))
		ss.forward(ks, n.output, sh.lastA[:B], int(lo))
	})

	// Phase C: the per-sample label head over the shards' parts in ascending
	// order — a pure function of (weights at batch start, sample), whichever
	// worker runs it.
	pool.run(B, func(i int) {
		loss, _, bad := n.labelHead(ks, sh.parts, i, len(b.Labels(i)))
		sh.losses[i], sh.nonFin[i] = loss, n.guardLoss(loss, bad)
	})

	// Phase D: output gradients. Each shard owns its rows exclusively, and
	// every row meets its samples in order on either walk, so every
	// weight-row accumulation has a fixed order; ∇h partials land in
	// shard-private rows.
	pool.run(S, func(s int) {
		ss := sh.shards[s]
		dhs := ss.dhPart[:B]
		for _, dhp := range dhs {
			simd.Zero(dhp)
		}
		ss.backward(ks, n.output, sh.lastA[:B], dhs, int(plan.bounds[s]))
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
		n.backwardMiddle(ks, sh.acts[i], sh.dhs[i])
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

	// Phase G: optimizer; the output layer steps per shard over the rows the
	// shard owns. Then the rebuild schedule, the sets striped over the pool.
	p := n.stepDense(ks)
	pool.run(S, func(s int) {
		n.output.ApplyAdamRange(ks, p, int(plan.bounds[s]), int(plan.bounds[s+1]))
	})
	n.output.FinishAdam()
	stats.Rebuilt = n.advanceRebuild(pool.run)

	for i := 0; i < B; i++ {
		stats.Loss += sh.losses[i]
		stats.NonFinite += sh.nonFin[i]
	}
	for _, ss := range sh.shards {
		stats.ActiveSum += int64(len(ss.ids))
	}
	return stats
}

// fit returns buf resized to n elements. It reallocates only when it has to
// grow, and then to at least twice the old capacity, so that a buffer which
// creeps up over the first batches settles after a few allocations instead
// of leaving one garbage copy per batch.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// ShardCount returns the configured shard count (0 = unsharded).
func (n *Network) ShardCount() int { return n.cfg.Shards }
