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

// Table is one LSH hash table: 2^bits buckets of at most bucketCap neuron
// ids, stored flat. Bucket b is ids[start[b]:start[b+1]], so a probe is two
// adjacent offset loads and one contiguous run, and the whole table is three
// arrays (amazon-s: 16 KiB of offsets, 16 KiB of counts and at most 53 KiB of
// ids). A table is never edited in place: Build produces its contents from
// the fingerprints of a row range in one counting sort.
//
// Build and Deserialize require external synchronization; Query is safe
// concurrently with other Queries. TableSet provides the locking.
type Table struct {
	bits      int
	mask      uint32
	bucketCap int
	policy    BucketPolicy
	seed      uint64

	start  []uint32 // 2^bits+1 offsets into ids
	ids    []int32
	counts []uint32 // lifetime insert count per bucket
}

// NewTable builds an empty table with 2^bits buckets of capacity bucketCap.
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
		start:     make([]uint32, n+1),
		counts:    make([]uint32, n),
	}
}

// Build replaces the table's contents with ids first, first+1, … where id
// first+i carries fingerprint hs[i] (masked to the bucket space). The result
// is what inserting those ids one by one in ascending order produces — the
// n-th arrival of a bucket takes slot n while the bucket has room, and once
// it is full the FIFO ring slot n mod cap or the reservoir's draw — but as a
// counting sort: count per bucket, prefix-sum the occupied lengths into
// start, then place. Storage is reused once it has reached len(hs) ids.
func (t *Table) Build(first int32, hs []uint32) {
	clear(t.counts)
	for _, h := range hs {
		t.counts[h&t.mask]++
	}
	// Offsets; the counts are zeroed again to serve as the arrival counters
	// of the placing pass, which leaves them at the same totals.
	bcap := uint32(t.bucketCap)
	var off uint32
	for b, c := range t.counts {
		t.start[b] = off
		off += min(c, bcap)
		t.counts[b] = 0
	}
	t.start[len(t.counts)] = off
	if cap(t.ids) < len(hs) {
		t.ids = make([]int32, len(hs))
	}
	t.ids = t.ids[:off]
	for i, h := range hs {
		b := h & t.mask
		n := t.counts[b]
		t.counts[b] = n + 1
		slot := n
		if n >= bcap {
			if t.policy == FIFO {
				slot = n % bcap
			} else {
				// Stateless reservoir sampling: position derived
				// deterministically from (seed, bucket, lifetime count),
				// uniform over [0, n]; a draw past the capacity drops the id.
				j := splitmix64(t.seed^uint64(b)<<32^uint64(n)) % uint64(n+1)
				if j >= uint64(bcap) {
					continue
				}
				slot = uint32(j)
			}
		}
		t.ids[t.start[b]+slot] = first + int32(i)
	}
}

// Query returns the bucket addressed by h. The returned slice aliases table
// storage and must not be mutated or retained across a rebuild.
func (t *Table) Query(h uint32) []int32 {
	b := h & t.mask
	return t.ids[t.start[b]:t.start[b+1]]
}

// Clone deep-copies the table, lifetime insert counts included, so
// Serialize(clone) is byte-identical to serializing the original at clone
// time — replication ships table snapshots, and a count below a bucket's
// population would be rejected on deserialize as corrupt. The caller
// provides synchronization against Build (TableSet clones under its read
// lock).
func (t *Table) Clone() *Table {
	c := *t
	c.start = append([]uint32(nil), t.start...)
	c.ids = append([]int32(nil), t.ids...)
	c.counts = append([]uint32(nil), t.counts...)
	return &c
}

// Buckets returns the total number of buckets (2^bits).
func (t *Table) Buckets() int { return len(t.counts) }

// Occupancy returns the number of non-empty buckets and the number of stored
// ids (post-eviction).
func (t *Table) Occupancy() (nonEmpty, stored int) {
	for b := range t.counts {
		if t.start[b+1] > t.start[b] {
			nonEmpty++
		}
	}
	return nonEmpty, len(t.ids)
}
