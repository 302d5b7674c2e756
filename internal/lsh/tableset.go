package lsh

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/fanout"
)

// TableSet owns the L hash tables of one LSH-sampled layer plus the hasher
// feeding them. It serializes rebuilds against queries with a read-write
// lock: HOGWILD threads query concurrently under the read lock while the
// periodic re-hashing of updated neurons takes the write lock only to swap
// the new contents in (§2 "Backpropagation and Hash Tables Update").
type TableSet struct {
	hasher Hasher
	tables []*Table

	mu sync.RWMutex

	// Rebuild scratch, kept between rebuilds (see RebuildRange): the
	// fingerprints of the range, table-major, and one row buffer and one
	// fingerprint vector per hashing worker.
	cols    []uint32
	rowBufs [][]float32
	hashes  [][]uint32
	fan     fanout.Group
}

// NewTableSet builds the L tables declared by the hasher.
func NewTableSet(h Hasher, bucketCap int, policy BucketPolicy, seed uint64) *TableSet {
	ts := &TableSet{hasher: h}
	ts.tables = make([]*Table, h.Tables())
	for i := range ts.tables {
		ts.tables[i] = NewTable(h.Bits(), bucketCap, policy, splitmix64(seed^uint64(i)))
	}
	return ts
}

// Hasher returns the hasher feeding the tables.
func (ts *TableSet) Hasher() Hasher { return ts.hasher }

// Clone returns a deep copy of the current table contents under the read
// lock: a point-in-time snapshot that later rebuilds of the original never
// touch. The hasher is shared — hashers are immutable after construction
// and use pooled scratch, so concurrent queries through both sets are safe.
// Predictor snapshots query the clone while training keeps rebuilding the
// original.
func (ts *TableSet) Clone() *TableSet {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	c := &TableSet{hasher: ts.hasher, tables: make([]*Table, len(ts.tables))}
	for i, t := range ts.tables {
		c.tables[i] = t.Clone()
	}
	return c
}

// Tables returns L.
func (ts *TableSet) Tables() int { return len(ts.tables) }

// RebuildDense replaces all tables' contents with neurons [0, n):
// RebuildRange over the whole layer.
func (ts *TableSet) RebuildDense(n, bufLen int, row func(i int, buf []float32) []float32, workers int) {
	ts.RebuildRange(0, n, bufLen, row, workers)
}

// RebuildRange replaces all tables' contents with neurons [lo, hi), keeping
// their global ids, reading each neuron's weight vector through row. row
// receives a per-worker scratch buffer of length bufLen it may use to
// materialize the vector (e.g. to expand bfloat16 weights); it can also
// ignore the buffer and return a direct view. A sharded output layer gives
// each shard its own TableSet rebuilt over just the rows it owns; queries
// then return global ids directly.
//
// Both halves run on workers goroutines (workers <= 0 uses GOMAXPROCS). The
// rows are hashed in contiguous stripes while queries go on against the old
// contents, each fingerprint vector scattered table-major into cols (4·L
// bytes per row); then, under the write lock, worker w builds tables w,
// w+workers, … from their columns. Table.Build equals serial insertion in
// ascending id, so table contents are a pure function of (lo, hi, weights) —
// independent of the worker count — and a query sees the old tables or the
// new ones, never a partly filled one. The scratch is owned by the set and
// reused by the next rebuild, so rebuilds of one set must not overlap (they
// run from the training goroutine or from construction).
func (ts *TableSet) RebuildRange(lo, hi, bufLen int, row func(i int, buf []float32) []float32, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n, l := max(hi-lo, 0), len(ts.tables)
	if len(ts.cols) < n*l {
		ts.cols = make([]uint32, n*l)
	}
	for w := len(ts.hashes); w < workers; w++ {
		ts.rowBufs = append(ts.rowBufs, nil)
		ts.hashes = append(ts.hashes, make([]uint32, l))
	}
	for w := range ts.rowBufs[:workers] {
		if len(ts.rowBufs[w]) < bufLen {
			ts.rowBufs[w] = make([]float32, bufLen)
		}
	}

	per := (n + workers - 1) / workers
	ts.fan.Run(workers, func(w int) {
		buf, hs := ts.rowBufs[w][:bufLen], ts.hashes[w]
		for i := w * per; i < min((w+1)*per, n); i++ {
			ts.hasher.HashDense(row(lo+i, buf), hs)
			for t, h := range hs {
				ts.cols[t*n+i] = h
			}
		}
	})

	builders := min(workers, l)
	ts.mu.Lock()
	ts.fan.Run(builders, func(w int) {
		for t := w; t < l; t += builders {
			ts.tables[t].Build(int32(lo), ts.cols[t*n:(t+1)*n])
		}
	})
	ts.mu.Unlock()
}

// HashDense hashes a dense activation vector into hs (length L) without
// querying. Sharded execution hashes each sample once and then probes every
// shard's tables with the same fingerprints, instead of re-hashing per
// shard.
func (ts *TableSet) HashDense(act []float32, hs []uint32) {
	ts.hasher.HashDense(act, hs)
}

// Collect is the sampling probe: it appends to dst the ids of the L buckets
// hs addresses (one fingerprint per table, as HashDense produces) that d has
// not seen this round, marking them seen, in visit order — table-major,
// bucket order within — and stops once dst holds limit ids (limit <= 0
// means no limit). d is indexed by id-base: a shard's set stores global ids
// and dedups over its own row range.
func (ts *TableSet) Collect(hs []uint32, d *Dedup, base int32, dst []int32, limit int) []int32 {
	if limit <= 0 {
		limit = math.MaxInt
	}
	stamp, cur := d.stamp, d.cur
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	for t, table := range ts.tables {
		for _, id := range table.Query(hs[t]) {
			if len(dst) >= limit {
				return dst
			}
			if stamp[id-base] != cur {
				stamp[id-base] = cur
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// QueryHashes calls visit for every id of the L buckets hs addresses, in
// Collect's visit order, repeats included. It is the closure form of the
// probe the benchmark's per-layer probes measure; the library itself
// samples through Collect. visit runs under the read lock and must not call
// back into the TableSet.
func (ts *TableSet) QueryHashes(hs []uint32, visit func(id int32)) {
	ts.mu.RLock()
	for t, table := range ts.tables {
		for _, id := range table.Query(hs[t]) {
			visit(id)
		}
	}
	ts.mu.RUnlock()
}

// Stats summarizes table occupancy for diagnostics.
type Stats struct {
	Tables        int
	BucketsPer    int
	NonEmpty      int // across all tables
	Stored        int // ids currently stored across all tables
	MeanPerBucket float64
}

// Stats returns current occupancy. Takes the read lock.
func (ts *TableSet) Stats() Stats {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	s := Stats{Tables: len(ts.tables)}
	if len(ts.tables) > 0 {
		s.BucketsPer = ts.tables[0].Buckets()
	}
	for _, t := range ts.tables {
		ne, st := t.Occupancy()
		s.NonEmpty += ne
		s.Stored += st
	}
	if s.NonEmpty > 0 {
		s.MeanPerBucket = float64(s.Stored) / float64(s.NonEmpty)
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("lsh: %d tables x %d buckets, %d non-empty, %d stored (%.1f/bucket)",
		s.Tables, s.BucketsPer, s.NonEmpty, s.Stored, s.MeanPerBucket)
}

// Dedup deduplicates neuron ids across the L tables of one query using a
// generation-stamped array: O(1) per candidate, no clearing between queries.
// Each HOGWILD worker owns one Dedup.
type Dedup struct {
	stamp []uint32
	cur   uint32
}

// NewDedup builds a deduper for ids in [0, n).
func NewDedup(n int) *Dedup {
	return &Dedup{stamp: make([]uint32, n)}
}

// Begin opens a new deduplication round.
func (d *Dedup) Begin() {
	d.cur++
	if d.cur == 0 { // wrapped: stamps from 2^32 rounds ago could collide
		clear(d.stamp)
		d.cur = 1
	}
}

// Seen reports whether id was already offered this round, marking it.
func (d *Dedup) Seen(id int32) bool {
	if d.stamp[id] == d.cur {
		return true
	}
	d.stamp[id] = d.cur
	return false
}
