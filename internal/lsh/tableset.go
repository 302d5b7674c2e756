package lsh

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/slide-cpu/slide/internal/fanout"
)

// TableSet owns the L hash tables of one LSH-sampled layer plus the hasher
// feeding them. It serializes rebuilds against queries with a read-write
// lock: HOGWILD threads query concurrently under the read lock while the
// periodic re-hashing of updated neurons takes the write lock (§2
// "Backpropagation and Hash Tables Update").
type TableSet struct {
	hasher Hasher
	tables []*Table

	mu sync.RWMutex

	hashBuf sync.Pool // *[]uint32 scratch of length L

	// Rebuild scratch, kept between rebuilds (see RebuildRange): one chunk
	// of fingerprints and one row buffer per hashing worker.
	rebuildHashes []uint32
	rebuildBufs   [][]float32
	rebuildFanout fanout.Group
}

// NewTableSet builds the L tables declared by the hasher.
func NewTableSet(h Hasher, bucketCap int, policy BucketPolicy, seed uint64) *TableSet {
	ts := &TableSet{hasher: h}
	ts.tables = make([]*Table, h.Tables())
	for i := range ts.tables {
		ts.tables[i] = NewTable(h.Bits(), bucketCap, policy, splitmix64(seed^uint64(i)))
	}
	ts.hashBuf.New = func() any {
		b := make([]uint32, h.Tables())
		return &b
	}
	return ts
}

// Hasher returns the hasher feeding the tables.
func (ts *TableSet) Hasher() Hasher { return ts.hasher }

// Clone returns a deep copy of the current table contents under the read
// lock: a point-in-time snapshot that later rebuilds or inserts on the
// original never touch. The hasher is shared — hashers are immutable after
// construction and use pooled scratch, so concurrent queries through both
// sets are safe. Predictor snapshots query the clone while training keeps
// rebuilding the original.
func (ts *TableSet) Clone() *TableSet {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	c := &TableSet{hasher: ts.hasher}
	c.tables = make([]*Table, len(ts.tables))
	for i, t := range ts.tables {
		c.tables[i] = t.Clone()
	}
	c.hashBuf.New = func() any {
		b := make([]uint32, ts.hasher.Tables())
		return &b
	}
	return c
}

// Tables returns L.
func (ts *TableSet) Tables() int { return len(ts.tables) }

// InsertDense hashes one neuron's weight vector and inserts its id into all
// L tables. It takes the write lock; prefer RebuildDense for bulk work.
func (ts *TableSet) InsertDense(id int32, weights []float32) {
	bp := ts.hashBuf.Get().(*[]uint32)
	ts.hasher.HashDense(weights, *bp)
	ts.mu.Lock()
	for t, table := range ts.tables {
		table.Insert(id, (*bp)[t])
	}
	ts.mu.Unlock()
	ts.hashBuf.Put(bp)
}

// RebuildDense clears all tables and re-inserts neurons [0, n): RebuildRange
// over the whole layer.
func (ts *TableSet) RebuildDense(n, bufLen int, row func(i int, buf []float32) []float32, workers int) {
	ts.RebuildRange(0, n, bufLen, row, workers)
}

// rebuildChunk is how many neurons are hashed between two insert passes.
const rebuildChunk = 2048

// RebuildRange clears all tables and re-inserts neurons [lo, hi), keeping
// their global ids, reading each neuron's weight vector through row. row
// receives a per-worker scratch buffer of length bufLen it may use to
// materialize the vector (e.g. to expand bfloat16 weights); it can also
// ignore the buffer and return a direct view. A sharded output layer gives
// each shard its own TableSet rebuilt over just the rows it owns; queries
// then return global ids directly.
//
// Hashing is parallelized across workers in chunks (workers <= 0 uses
// GOMAXPROCS); insertion is serialized per chunk under the write lock, in ascending id, so queries only ever see
// a consistent (possibly partially re-filled) table and table contents are a
// pure function of (lo, hi, weights) — independent of the worker count.
// The fingerprint chunk and the row buffers are scratch owned by the set and
// reused by the next rebuild, so rebuilds of one set must not overlap (they
// run from the training goroutine or from construction).
func (ts *TableSet) RebuildRange(lo, hi, bufLen int, row func(i int, buf []float32) []float32, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ts.mu.Lock()
	for _, t := range ts.tables {
		t.Clear()
	}
	ts.mu.Unlock()

	l := len(ts.tables)
	if need := min(rebuildChunk, hi-lo) * l; len(ts.rebuildHashes) < need {
		ts.rebuildHashes = make([]uint32, need)
	}
	for w := 0; w < workers; w++ {
		if w == len(ts.rebuildBufs) {
			ts.rebuildBufs = append(ts.rebuildBufs, nil)
		}
		if len(ts.rebuildBufs[w]) < bufLen {
			ts.rebuildBufs[w] = make([]float32, bufLen)
		}
	}

	for cl := lo; cl < hi; cl += rebuildChunk {
		ch := min(cl+rebuildChunk, hi)
		per := (ch - cl + workers - 1) / workers
		ts.rebuildFanout.Run(workers, func(w int) {
			buf := ts.rebuildBufs[w][:bufLen]
			for i := cl + w*per; i < min(cl+(w+1)*per, ch); i++ {
				ts.hasher.HashDense(row(i, buf), ts.rebuildHashes[(i-cl)*l:(i-cl+1)*l])
			}
		})

		// Serial insert under the write lock.
		ts.mu.Lock()
		for i := cl; i < ch; i++ {
			hs := ts.rebuildHashes[(i-cl)*l : (i-cl+1)*l]
			for t, table := range ts.tables {
				table.Insert(int32(i), hs[t])
			}
		}
		ts.mu.Unlock()
	}
}

// QueryDense hashes a dense activation vector and calls visit for every id
// found across the L tables' matching buckets. Ids repeat across tables;
// callers dedup (see Dedup). visit runs under the read lock and must not
// call back into the TableSet.
func (ts *TableSet) QueryDense(act []float32, visit func(id int32)) {
	bp := ts.hashBuf.Get().(*[]uint32)
	ts.hasher.HashDense(act, *bp)
	ts.query(*bp, visit)
	ts.hashBuf.Put(bp)
}

// HashDense hashes a dense activation vector into hs (length L) without
// querying. Sharded execution hashes each sample once and then probes every
// shard's tables with QueryHashes, instead of re-hashing per shard.
func (ts *TableSet) HashDense(act []float32, hs []uint32) {
	ts.hasher.HashDense(act, hs)
}

// QueryHashes is QueryDense with the hashing already done: hs holds one
// bucket hash per table, as produced by HashDense with the same hasher
// parameters. Visit order (table-major, bucket order within) matches
// QueryDense exactly.
func (ts *TableSet) QueryHashes(hs []uint32, visit func(id int32)) {
	ts.query(hs, visit)
}

func (ts *TableSet) query(hs []uint32, visit func(id int32)) {
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
