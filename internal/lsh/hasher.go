// Package lsh implements the locality-sensitive-hashing substrate of SLIDE:
// the DWTA (Densified Winner-Take-All), SimHash and DOPH families, hash
// tables with fixed-capacity FIFO/reservoir buckets, and the TableSet that
// maps neuron ids to buckets and answers active-set queries (§2 of the
// paper, with the vectorized DWTA bin-max of §4.3.3).
//
// Tables are never edited in place. A Table is three flat arrays — bucket
// offsets, ids, lifetime counts — that Table.Build produces from the
// fingerprints of a row range by a counting sort whose result is what
// inserting the ids one by one in ascending order would give (§4.1's
// contiguous layout, applied to the tables). TableSet.RebuildRange hashes
// the rows on all workers, then builds the L tables one per worker under
// the write lock; TableSet.Collect is the sampling probe, appending the
// not-yet-seen ids of the L addressed buckets to the caller's slice.
package lsh

import (
	"github.com/slide-cpu/slide/internal/sparse"
)

// Hasher computes, for one input vector, the bucket fingerprint in each of
// L hash tables. Implementations are safe for concurrent use: HOGWILD
// threads hash samples in parallel while rebuild threads hash neurons.
type Hasher interface {
	// Tables returns L, the number of hash tables the hasher feeds.
	Tables() int
	// Bits returns the number of bucket-index bits produced per table.
	// Table capacity is 2^Bits buckets.
	Bits() int
	// Hash writes one bucket index per table into out (len >= Tables())
	// for a sparse input vector.
	Hash(v sparse.Vector, out []uint32)
	// HashDense is the dense-vector path, used for hashing neuron weight
	// vectors (dim = fan-in of the layer) and dense activations.
	HashDense(vals []float32, out []uint32)
}

// splitmix64 is the 64-bit finalizer used to derive per-(table,bit,feature)
// pseudo-random decisions without storing projection matrices.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
