package lsh

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// refTable is the table this package had before the flat layout — one slice
// per bucket, filled by inserting ids one at a time — with the reader and
// writer that went with it. It is the oracle Table.Build and the flat codec
// are proven against: same bucket contents, same order, same lifetime
// counts, hence the same serialized bytes.
type refTable struct {
	mask      uint32
	bucketCap int
	policy    BucketPolicy
	seed      uint64
	buckets   [][]int32
	counts    []uint32
}

func newRefTable(bits, bucketCap int, policy BucketPolicy, seed uint64) *refTable {
	n := 1 << bits
	return &refTable{
		mask:      uint32(n - 1),
		bucketCap: bucketCap,
		policy:    policy,
		seed:      seed,
		buckets:   make([][]int32, n),
		counts:    make([]uint32, n),
	}
}

// refLike returns an empty refTable shaped like t.
func refLike(t *Table) *refTable {
	return newRefTable(t.bits, t.bucketCap, t.policy, t.seed)
}

// Insert places id into the bucket addressed by fingerprint h.
func (t *refTable) Insert(id int32, h uint32) {
	b := h & t.mask
	n := t.counts[b]
	t.counts[b] = n + 1
	bucket := t.buckets[b]
	if len(bucket) < t.bucketCap {
		t.buckets[b] = append(bucket, id)
		return
	}
	switch t.policy {
	case FIFO:
		bucket[n%uint32(t.bucketCap)] = id
	case Reservoir:
		j := splitmix64(t.seed^uint64(b)<<32^uint64(n)) % uint64(n+1)
		if j < uint64(t.bucketCap) {
			bucket[j] = id
		}
	}
}

func (t *refTable) Serialize(w io.Writer) error {
	nonEmpty := 0
	for _, b := range t.buckets {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(nonEmpty)); err != nil {
		return err
	}
	for i, b := range t.buckets {
		if len(b) == 0 {
			continue
		}
		hdr := [3]uint32{uint32(i), t.counts[i], uint32(len(b))}
		if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, b); err != nil {
			return err
		}
	}
	return nil
}

func (t *refTable) Deserialize(r io.Reader) error {
	clear(t.buckets)
	clear(t.counts)
	var nonEmpty uint64
	if err := binary.Read(r, binary.LittleEndian, &nonEmpty); err != nil {
		return err
	}
	if nonEmpty > uint64(len(t.buckets)) {
		return fmt.Errorf("table declares %d non-empty buckets of %d", nonEmpty, len(t.buckets))
	}
	for k := uint64(0); k < nonEmpty; k++ {
		var hdr [3]uint32
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			return err
		}
		idx, count, n := hdr[0], hdr[1], hdr[2]
		if int(idx) >= len(t.buckets) {
			return fmt.Errorf("bucket index %d out of range", idx)
		}
		if int(n) > t.bucketCap || n == 0 || uint64(n) > uint64(count) {
			return fmt.Errorf("bucket %d declares %d ids (cap %d, count %d)", idx, n, t.bucketCap, count)
		}
		ids := make([]int32, n)
		if err := binary.Read(r, binary.LittleEndian, ids); err != nil {
			return err
		}
		t.buckets[idx] = ids
		t.counts[idx] = count
	}
	return nil
}

func refBytes(t *testing.T, ref *refTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ref.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tableBytes(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refRebuild is the serial rebuild: hash rows [lo, hi) with the set's hasher
// and insert each id into one refTable per table, in ascending id.
func refRebuild(ts *TableSet, lo, hi int, row func(i int) []float32) []*refTable {
	refs := make([]*refTable, len(ts.tables))
	for i, tbl := range ts.tables {
		refs[i] = refLike(tbl)
	}
	hs := make([]uint32, len(refs))
	for i := lo; i < hi; i++ {
		ts.hasher.HashDense(row(i), hs)
		for t, ref := range refs {
			ref.Insert(int32(i), hs[t])
		}
	}
	return refs
}

// frameSet renders table payloads in the checksummed set format, written
// here independently of TableSet.Serialize.
func frameSet(payloads ...[]byte) []byte {
	le := binary.LittleEndian
	out := le.AppendUint64(le.AppendUint64(le.AppendUint64(nil, setSentinel), setFormatCRC), uint64(len(payloads)))
	for _, p := range payloads {
		out = le.AppendUint32(append(out, p...), crc32.Checksum(p, castagnoli))
	}
	return out
}

// frameLegacy renders table payloads in the pre-sentinel set layout, which
// Deserialize refuses: a plain count, then the payloads.
func frameLegacy(payloads ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(payloads)))
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// refSetBytes is the checksummed stream the pre-flat code wrote for refs.
func refSetBytes(t *testing.T, refs []*refTable) []byte {
	t.Helper()
	payloads := make([][]byte, len(refs))
	for i, ref := range refs {
		payloads[i] = refBytes(t, ref)
	}
	return frameSet(payloads...)
}

// TestRefTableMatchesBuild: Build is serial insertion. Both policies, bucket
// capacities from degenerate to the default, row counts that leave buckets
// empty, fill them exactly and overflow them several times (FIFO wraps the
// ring more than once; the reservoir drops most arrivals), and a non-zero
// first id as a shard's range has.
func TestRefTableMatchesBuild(t *testing.T) {
	const bits = 3 // 8 buckets
	for _, policy := range []BucketPolicy{FIFO, Reservoir} {
		for _, bucketCap := range []int{1, 2, 7, 128} {
			for _, n := range []int{0, 1, 5, 8 * bucketCap, 8*bucketCap + 3, 40 * bucketCap} {
				for _, first := range []int32{0, 1000} {
					// Skewed fingerprints: bucket 0 gets about half, bucket 7
					// none, the rest share; plus an exact round-robin.
					for name, fp := range map[string]func(i int) uint32{
						"skewed": func(i int) uint32 { return uint32(splitmix64(uint64(i))%7) * uint32(i&1) },
						"even":   func(i int) uint32 { return uint32(i) },
					} {
						hs := make([]uint32, n)
						ref := newRefTable(bits, bucketCap, policy, 77)
						for i := range hs {
							hs[i] = fp(i) | 0xab00 // high bits are masked off
							ref.Insert(first+int32(i), hs[i])
						}
						tbl := NewTable(bits, bucketCap, policy, 77)
						tbl.Build(first+9, []uint32{1, 2, 3, 3, 3}) // earlier contents must not show
						tbl.Build(first, hs)
						if !bytes.Equal(tableBytes(t, tbl), refBytes(t, ref)) {
							t.Fatalf("%v cap %d n %d first %d %s: Build differs from serial insertion", policy, bucketCap, n, first, name)
						}
						for b := uint32(0); b < 1<<bits; b++ {
							if got, want := tbl.Query(b), ref.buckets[b]; !bytes.Equal(int32Bytes(got), int32Bytes(want)) {
								t.Fatalf("%v cap %d n %d first %d %s: bucket %d is %v, want %v", policy, bucketCap, n, first, name, b, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestRefTableCheckpointInterchange: a table section written by the pre-flat
// code loads into flat tables and re-saves to the same bytes, and a section
// written by flat tables loads through the pre-flat reader into the same
// buckets — checkpoints and replication streams cross the change in both
// directions. Both policies, with overflowing buckets.
func TestRefTableCheckpointInterchange(t *testing.T) {
	for _, policy := range []BucketPolicy{FIFO, Reservoir} {
		h := mustSimHash(t, SimHashConfig{K: 4, L: 5, Dim: rebuildDim, Seed: 7})
		const n = 300
		ts := NewTableSet(h, 16, policy, 3)
		rows := fixtureRows(n)
		old := refSetBytes(t, refRebuild(ts, 0, n, func(i int) []float32 { return rows[i] }))

		// Old writer → new reader → new writer.
		if err := ts.Deserialize(bytes.NewReader(old), 0, n); err != nil {
			t.Fatalf("%v: section written by the pre-flat code rejected: %v", policy, err)
		}
		if st := ts.Stats(); st.Stored == n*5 {
			t.Fatalf("%v: fixture never overflows a bucket (%v)", policy, st)
		}
		if !bytes.Equal(serializeSet(t, ts), old) {
			t.Fatalf("%v: re-saved section differs from the one loaded", policy)
		}

		// New writer → old reader → old writer.
		ts.RebuildDense(n, rebuildDim, func(i int, _ []float32) []float32 { return rows[i] }, 2)
		for i, tbl := range ts.tables {
			ref := refLike(tbl)
			if err := ref.Deserialize(bytes.NewReader(tableBytes(t, tbl))); err != nil {
				t.Fatalf("%v table %d: pre-flat reader rejects the flat writer's bytes: %v", policy, i, err)
			}
			if !bytes.Equal(refBytes(t, ref), tableBytes(t, tbl)) {
				t.Fatalf("%v table %d: pre-flat reader decoded different contents", policy, i)
			}
		}
		if !bytes.Equal(serializeSet(t, ts), old) {
			t.Fatalf("%v: rebuilt set serializes differently from the serial rebuild", policy)
		}
	}
}
