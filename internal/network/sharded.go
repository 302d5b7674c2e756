package network

import (
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/faultinject"
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

// shardScratch is one shard's per-batch working set: its lane, whose stripe
// is its output walk over the whole batch — every sample's active ids among
// the shard's rows, labels first, and their logits and gradients — and the
// shard's partial ∇h per sample. dhPart rows are views into one 64-byte-aligned
// block per shard, so one shard's gradient traffic is one contiguous stretch
// on its pinned core.
type shardScratch struct {
	lane
	dhPart [][]float32 // [sample][lastDim] partial ∇h, one contiguous block
}

// shardState is the phase engine's machinery hanging off a Network; the
// shard geometry and the per-shard tables are the network's sampler.
type shardState struct {
	pin bool // pin pool workers to CPUs (hint; skipped on 1-CPU hosts)

	// Per-batch scratch, grown on demand and reused across batches.
	samples
	xs     []sparse.Vector
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
		// Stream 1<<40|s cannot collide with the HOGWILD per-worker streams
		// (0..W-1) or any other splitSeed consumer.
		ss := &shardScratch{lane: newLane(int(plan.bounds[s+1]-plan.bounds[s]), splitSeed(cfg.Seed, 5), uint64(1)<<40|uint64(s))}
		sh.shards = append(sh.shards, ss)
		sh.parts = append(sh.parts, &ss.stripe)
	}
	return sh
}

// ensureBatch grows the per-batch scratch to hold b samples.
func (sh *shardState) ensureBatch(f *forwardState, b int) {
	sh.fit(f, b)
	sh.xs, sh.losses, sh.nonFin = fit(sh.xs, b), fit(sh.losses, b), fit(sh.nonFin, b)
	for _, ss := range sh.shards {
		if len(ss.dhPart) < b {
			ss.dhPart, _ = mem.Contiguous2D(b, f.lastDim)
		}
	}
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
//	                (rows shard-owned) and the shard's partial ∇h per sample;
//	                each row takes its ADAM step as the walk leaves it.
//	E (per sample): ∇h = Σ_s partials, fixed shard order; then the middle
//	                stack backward (serial — stacked layers share gradient
//	                rows across samples).
//	F (per tile):   hidden backward over disjoint unit ranges; elementwise
//	                kernels make the per-scalar order sample-ascending
//	                regardless of tiling.
//	G:              ADAM of the dense layers (the output's ran in D) and the
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
		smp.hashMany(sh.lasts[lo:hi], sh.hashes[lo*L:hi*L])
	})

	// Phase B: per-shard active sets and logits. Samples run in order inside
	// each shard, so the shard RNG consumption is a pure function of the
	// batch — independent of which worker executes the shard. Each shard
	// picks under its own budget (the plan's split of MinActive/MaxActive)
	// from its own set: unlike the whole-layer budget HOGWILD and serving
	// pick under, what a shard selects never depends on what another found.
	// The shard's row-major walk then starts at its first row, so it sums
	// each ∇h partial in an order fixed by the shard count alone.
	pool.run(S, func(s int) {
		ss, bud := sh.shards[s], smp.shard(s)
		ss.pick(f, bud, b, 0, 1, sh.hashes)
		ss.forward(ks, n.output, sh.lasts[:B], int(bud.lo))
	})

	// Phase C: the per-sample label head over the shards' parts in ascending
	// order — a pure function of (weights at batch start, sample), whichever
	// worker runs it.
	pool.run(B, func(i int) {
		loss, bad := n.labelHead(ks, sh.parts, i, len(b.Labels(i)))
		sh.losses[i], sh.nonFin[i] = loss, n.guardLoss(loss, bad)
	})

	// Phase D: output gradients. Each shard owns its rows exclusively, and
	// the walk meets every row's samples in order, so every
	// weight-row accumulation has a fixed order; ∇h partials land in
	// shard-private rows. Owning its rows, the walk also steps their ADAM.
	p := n.adamParams()
	pool.run(S, func(s int) {
		ss := sh.shards[s]
		dhs := ss.dhPart[:B]
		for _, dhp := range dhs {
			simd.Zero(dhp)
		}
		step := p // a task's own copy: &p would move p to the heap
		ss.backward(ks, n.output, sh.lasts[:B], dhs, int(plan.bounds[s]), &step)
	})

	// Phase E: reduce ∇h per sample in fixed shard order.
	pool.run(B, func(i int) {
		dh := sh.lastDhs[i]
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

	// Phase G: optimizer of the dense layers; the output layer stepped in
	// phase D. Then the rebuild schedule, the sets striped over the pool.
	n.stepDense(ks, p)
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
