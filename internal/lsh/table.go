package lsh

import "fmt"

// BucketPolicy selects how a full bucket absorbs a new insertion.
type BucketPolicy int

const (
	// FIFO overwrites the oldest entry (SLIDE's default policy).
	FIFO BucketPolicy = iota
	// Reservoir keeps a uniform sample of everything ever inserted.
	Reservoir
)

// String implements fmt.Stringer.
func (p BucketPolicy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Reservoir:
		return "reservoir"
	default:
		return "unknown"
	}
}

// Table is one LSH hash table: 2^bits buckets of fixed capacity holding
// neuron ids. Buckets are allocated lazily (the bucket-space is huge and
// mostly empty under DWTA's 18-bit fingerprints — the original SLIDE
// pre-allocated it all, which is part of its memory bloat).
//
// Insert requires external synchronization; Query is safe concurrently with
// other Queries. TableSet provides the rebuild-vs-query locking.
type Table struct {
	bits      int
	mask      uint32
	bucketCap int
	policy    BucketPolicy
	seed      uint64

	buckets [][]int32
	counts  []uint32 // lifetime insert count per bucket
	// slab is the unused tail of the block bucket storage is carved from.
	// Rebuilds keep touching new buckets as the weights drift, so a malloc
	// per new bucket is a steady trickle of small objects; carving costs one
	// allocation per slabSize ids of new capacity instead.
	slab []int32
}

// slabSize is the block size, in ids, bucket storage is carved from.
const slabSize = 1024

// carve returns an empty bucket of capacity n backed by the table's slab.
func (t *Table) carve(n int) []int32 {
	if len(t.slab) < n {
		t.slab = make([]int32, max(n, slabSize))
	}
	b := t.slab[:0:n]
	t.slab = t.slab[n:]
	return b
}

// NewTable builds a table with 2^bits buckets of capacity bucketCap.
func NewTable(bits, bucketCap int, policy BucketPolicy, seed uint64) *Table {
	if bits <= 0 || bits > 30 {
		panic(fmt.Sprintf("lsh: table bits %d out of range (0,30]", bits))
	}
	if bucketCap <= 0 {
		panic(fmt.Sprintf("lsh: bucket capacity %d must be positive", bucketCap))
	}
	n := 1 << bits
	return &Table{
		bits:      bits,
		mask:      uint32(n - 1),
		bucketCap: bucketCap,
		policy:    policy,
		seed:      seed,
		buckets:   make([][]int32, n),
		counts:    make([]uint32, n),
	}
}

// Insert places id into the bucket addressed by fingerprint h (masked to the
// table's bucket space).
func (t *Table) Insert(id int32, h uint32) {
	b := h & t.mask
	n := t.counts[b]
	t.counts[b] = n + 1
	bucket := t.buckets[b]
	if len(bucket) < t.bucketCap {
		if len(bucket) == cap(bucket) { // new, or full: double, starting at 4
			bucket = append(t.carve(min(max(4, 2*cap(bucket)), t.bucketCap)), bucket...)
		}
		t.buckets[b] = append(bucket, id)
		return
	}
	switch t.policy {
	case FIFO:
		bucket[n%uint32(t.bucketCap)] = id
	case Reservoir:
		// Stateless reservoir sampling: position derived deterministically
		// from (seed, bucket, lifetime count), uniform over [0, n].
		j := splitmix64(t.seed^uint64(b)<<32^uint64(n)) % uint64(n+1)
		if j < uint64(t.bucketCap) {
			bucket[j] = id
		}
	}
}

// Query returns the bucket addressed by h. The returned slice aliases table
// storage and must not be mutated or retained across a rebuild.
func (t *Table) Query(h uint32) []int32 {
	return t.buckets[h&t.mask]
}

// Clone deep-copies the table: the clone's buckets share no storage with
// the original (they are carved from the clone's own slab), so the two
// evolve independently. Lifetime insert counts are
// copied too, so Serialize(clone) is byte-identical to serializing the
// original at clone time — replication ships table snapshots, and a count
// below a bucket's population would be rejected on deserialize as corrupt.
// The caller provides synchronization against concurrent Inserts (TableSet
// clones under its read lock).
func (t *Table) Clone() *Table {
	c := &Table{
		bits:      t.bits,
		mask:      t.mask,
		bucketCap: t.bucketCap,
		policy:    t.policy,
		seed:      t.seed,
		buckets:   make([][]int32, len(t.buckets)),
		counts:    append([]uint32(nil), t.counts...),
	}
	for i, b := range t.buckets {
		if len(b) > 0 {
			c.buckets[i] = append(c.carve(len(b)), b...)
		}
	}
	return c
}

// Clear empties every bucket, keeping allocated capacity for the next build.
func (t *Table) Clear() {
	for i := range t.buckets {
		if t.buckets[i] != nil {
			t.buckets[i] = t.buckets[i][:0]
		}
	}
	clear(t.counts)
}

// Buckets returns the total number of buckets (2^bits).
func (t *Table) Buckets() int { return len(t.buckets) }

// Occupancy returns the number of non-empty buckets and the number of stored
// ids (post-eviction).
func (t *Table) Occupancy() (nonEmpty, stored int) {
	for _, b := range t.buckets {
		if len(b) > 0 {
			nonEmpty++
			stored += len(b)
		}
	}
	return nonEmpty, stored
}
