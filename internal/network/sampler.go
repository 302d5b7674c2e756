package network

import (
	"fmt"
	"io"

	"github.com/slide-cpu/slide/internal/lsh"
)

// shardPlan is the immutable shard geometry derived from a validated config:
// a balanced contiguous partition of the output rows, with the active-set
// budgets split proportionally. Pure function of the config — trainer,
// snapshots, and replicas derive identical plans. An un-sharded model
// (Shards == 0) has the one-shard plan: every row, the whole budget.
type shardPlan struct {
	s      int
	bounds []int32 // len s+1; shard i owns rows [bounds[i], bounds[i+1])
	minAct []int   // per-shard random top-up floor (MinActive split)
	maxAct []int   // per-shard active cap (MaxActive split; 0 = uncapped)
}

func newShardPlan(cfg *Config) *shardPlan {
	s := max(cfg.Shards, 1)
	p := &shardPlan{
		s:      s,
		bounds: make([]int32, s+1),
		minAct: make([]int, s),
		maxAct: make([]int, s),
	}
	// share is shard i's part of total: total/s, the remainder going one
	// each to the leading shards.
	share := func(total, i int) int {
		if i < total%s {
			return total/s + 1
		}
		return total / s
	}
	for i := 0; i < s; i++ {
		w := share(cfg.OutputDim, i)
		p.bounds[i+1] = p.bounds[i] + int32(w)
		p.minAct[i] = min(share(cfg.MinActive, i), w) // top-up cannot exceed the shard's width
		if cfg.MaxActive > 0 {
			p.maxAct[i] = max(share(cfg.MaxActive, i), 1) // a cap of zero would drop labels
		}
	}
	return p
}

// sampler is the model's LSH sampling structure: one table set per shard of
// the plan, set s holding the global ids of rows [bounds[s], bounds[s+1]).
// There are no sets under NoSampling/UniformSampling. Every set shares one
// hasher (hashers are immutable and safe for concurrent use) and the table
// seeds, so a sample is hashed once and the fingerprints probe any set, and
// a set's contents are a pure function of (its row range, the weights at the
// last rebuild) — never of the worker count. The live forward state holds the
// sets training rebuilds; a snapshot holds a clone nobody writes.
type sampler struct {
	plan *shardPlan
	sets []*lsh.TableSet
}

// newSampler builds the empty sampler a validated config declares. Hasher
// and table seeds derive from cfg.Seed exactly as in training, so a replica
// deserializing table contents into a fresh sampler gets bit-identical query
// behavior.
func newSampler(cfg *Config, lastDim int) (*sampler, error) {
	sm := &sampler{plan: newShardPlan(cfg)}
	if cfg.NoSampling || cfg.UniformSampling {
		return sm, nil
	}
	var hasher lsh.Hasher
	var err error
	switch cfg.Hash {
	case DWTA:
		hasher, err = lsh.NewDWTA(lsh.DWTAConfig{
			K: cfg.K, L: cfg.L, BinSize: cfg.BinSize,
			Dim: lastDim, Seed: splitSeed(cfg.Seed, 3),
		})
	case SimHash:
		hasher, err = lsh.NewSimHash(lsh.SimHashConfig{
			K: cfg.K, L: cfg.L,
			Dim: lastDim, Seed: splitSeed(cfg.Seed, 3),
		})
	case DOPH:
		hasher, err = lsh.NewDOPH(lsh.DOPHConfig{
			K: cfg.K, L: cfg.L,
			Dim: lastDim, Seed: splitSeed(cfg.Seed, 3),
		})
	default:
		err = fmt.Errorf("network: unknown hash family %d", cfg.Hash)
	}
	if err != nil {
		return nil, err
	}
	for range sm.plan.s {
		sm.sets = append(sm.sets, lsh.NewTableSet(hasher, cfg.BucketCap, cfg.BucketPolicy, splitSeed(cfg.Seed, 4)))
	}
	return sm, nil
}

// sampled reports whether the model retrieves candidates via LSH.
func (sm *sampler) sampled() bool { return len(sm.sets) > 0 }

// clone deep-copies every set (snapshot publication); the plan is shared.
func (sm *sampler) clone() *sampler {
	c := &sampler{plan: sm.plan, sets: make([]*lsh.TableSet, len(sm.sets))}
	for s, ts := range sm.sets {
		c.sets[s] = ts.Clone()
	}
	return c
}

// serialize writes the sets back to back. The TableSet framing is
// self-delimiting and the set count is derived from the config, so the
// stream needs no count prefix: a one-set model's bytes are exactly
// TableSet.Serialize, and the bytes are a pure function of (seed, shard
// count, rebuild history), never of the worker count.
func (sm *sampler) serialize(w io.Writer) error {
	for s, ts := range sm.sets {
		if err := ts.Serialize(w); err != nil {
			return fmt.Errorf("shard %d tables: %w", s, err)
		}
	}
	return nil
}

// deserialize fills the sets of a freshly built sampler from what serialize
// wrote, holding each set's ids to the rows the plan gives it.
func (sm *sampler) deserialize(r io.Reader) error {
	for s, ts := range sm.sets {
		if err := ts.Deserialize(r, sm.plan.bounds[s], sm.plan.bounds[s+1]); err != nil {
			return fmt.Errorf("shard %d tables: %w", s, err)
		}
	}
	return nil
}

// rebuild re-hashes every set's rows into fresh tables. A lone set hashes
// and builds on all workers itself; several are striped over run — the
// caller's fan-out: the phase pool inside a sharded step, the network's
// group out of band — one hashing worker each, set s on stripe s mod
// workers. Either way a set's contents do not depend on the scheduling.
func (sm *sampler) rebuild(bufLen int, row func(i int, buf []float32) []float32, workers int, run func(n int, task func(w int))) {
	b := sm.plan.bounds
	if len(sm.sets) == 1 {
		sm.sets[0].RebuildRange(0, int(b[1]), bufLen, row, workers)
		return
	}
	stripes := min(workers, len(sm.sets))
	run(stripes, func(w int) {
		for s := w; s < len(sm.sets); s += stripes {
			sm.sets[s].RebuildRange(int(b[s]), int(b[s+1]), bufLen, row, 1)
		}
	})
}

// hash fingerprints the output layer's input once for every set.
func (sm *sampler) hash(act []float32, hs []uint32) { sm.sets[0].HashDense(act, hs) }

// collect probes every set, in shard order, with one sample's fingerprints
// under one budget and one whole-layer dedup — ids are disjoint across sets.
func (sm *sampler) collect(hs []uint32, d *lsh.Dedup, dst []int32, limit int) []int32 {
	for _, ts := range sm.sets {
		dst = ts.Collect(hs, d, 0, dst, limit)
	}
	return dst
}
