package lsh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Table/TableSet serialization: the dynamic bucket state only (stored ids
// plus lifetime insert counts). Shape parameters (bits, capacity, policy,
// seed) are construction-time configuration the owner re-derives, so a
// deserialize targets a freshly constructed, identically shaped table.
//
// This exists for exact training resume: table contents are a pure function
// of the weights at the *last scheduled rebuild*, which a checkpoint loader
// cannot re-derive from the current weights — so the network checkpoint
// carries the state itself. Only non-empty buckets are written (a bucket an
// id ever hashed to keeps at least one, so count > 0 implies occupancy),
// which keeps the payload proportional to stored ids, not bucket space.

// ErrMalformed is the sentinel wrapped by every structural fault a table
// payload can carry: a bucket index out of range or out of order, a bucket
// length its capacity or lifetime count cannot explain, an id outside the
// row range the set indexes. The CRC trailer proves the bytes are the ones
// written; this proves they describe a table a query can walk.
var ErrMalformed = errors.New("lsh: malformed table payload")

// appendTo appends the table's serialized bucket state to out: the number of
// non-empty buckets, then for each in ascending order its index, lifetime
// count and length followed by its ids. The caller provides synchronization
// against Build.
func (t *Table) appendTo(out []byte) []byte {
	nonEmpty, stored := t.Occupancy()
	le := binary.LittleEndian
	out = le.AppendUint64(slices.Grow(out, 8+12*nonEmpty+4*stored), uint64(nonEmpty))
	for b, count := range t.counts {
		bucket := t.ids[t.start[b]:t.start[b+1]]
		if len(bucket) == 0 {
			continue
		}
		out = le.AppendUint32(le.AppendUint32(le.AppendUint32(out, uint32(b)), count), uint32(len(bucket)))
		for _, id := range bucket {
			out = le.AppendUint32(out, uint32(id))
		}
	}
	return out
}

// Deserialize replaces the table's bucket state with a previously serialized
// one, reading exactly the payload's bytes. The table must have the same
// shape (bits, capacity) as the writer. Buckets must arrive in strictly
// ascending index order, as every writer produces them, and every id must
// lie in [lo, hi), the rows the owning set indexes — a query stamps a dedup
// array by id, so an id outside it would be an out-of-range write on the
// first probe. Structural faults wrap ErrMalformed; after any error the
// table holds the ids read so far and is safe to query.
func (t *Table) Deserialize(r io.Reader, lo, hi int32) error {
	clear(t.counts)
	t.ids = t.ids[:0]
	next := 0 // buckets below next have their start offset set
	defer func() {
		for ; next < len(t.start); next++ {
			t.start[next] = uint32(len(t.ids))
		}
	}()
	le := binary.LittleEndian
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return fmt.Errorf("lsh: reading table header: %w", err)
	}
	nonEmpty := le.Uint64(hdr[:8])
	if nonEmpty > uint64(len(t.counts)) {
		return fmt.Errorf("%w: %d non-empty buckets of %d", ErrMalformed, nonEmpty, len(t.counts))
	}
	raw := make([]byte, 4*t.bucketCap)
	for k := uint64(0); k < nonEmpty; k++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("lsh: reading bucket header: %w", err)
		}
		idx, count, n := le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint32(hdr[8:])
		if uint64(idx) >= uint64(len(t.counts)) || int(idx) < next {
			return fmt.Errorf("%w: bucket index %d, want one in [%d,%d)", ErrMalformed, idx, next, len(t.counts))
		}
		if n == 0 || n > uint32(t.bucketCap) || n > count {
			return fmt.Errorf("%w: bucket %d declares %d ids (cap %d, count %d)", ErrMalformed, idx, n, t.bucketCap, count)
		}
		for ; next <= int(idx); next++ {
			t.start[next] = uint32(len(t.ids))
		}
		if _, err := io.ReadFull(r, raw[:4*n]); err != nil {
			return fmt.Errorf("lsh: reading bucket ids: %w", err)
		}
		for i := uint32(0); i < n; i++ {
			id := int32(le.Uint32(raw[4*i:]))
			if id < lo || id >= hi {
				return fmt.Errorf("%w: bucket %d holds id %d outside [%d,%d)", ErrMalformed, idx, id, lo, hi)
			}
			t.ids = append(t.ids, id)
		}
		t.counts[idx] = count
	}
	return nil
}

// TableSet stream format: a sentinel (an impossible table count) announces
// the checksummed layout — sentinel, format version, table count, then each
// table's payload followed by its own CRC32C trailer. Per-table checksums
// localize damage to one table even when the set is embedded in a larger
// container (the network checkpoint, a replication base or delta). A stream
// that does not open with the sentinel — the unchecksummed layout of
// pre-checksum writers, which started with a plain table count — is refused.

const (
	setSentinel  = ^uint64(0)
	setFormatCRC = uint64(1)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is the sentinel wrapped by per-table checksum mismatches.
var ErrChecksum = errors.New("lsh: table checksum mismatch")

// Serialize writes all L tables' bucket state under the read lock, each
// table followed by a CRC32C of its payload.
func (ts *TableSet) Serialize(w io.Writer) error {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	for _, v := range []uint64{setSentinel, setFormatCRC, uint64(len(ts.tables))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("lsh: writing table set header: %w", err)
		}
	}
	var buf []byte
	for i, t := range ts.tables {
		buf = t.appendTo(buf[:0])
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("lsh: writing table %d: %w", i, err)
		}
	}
	return nil
}

// Deserialize replaces all L tables' bucket state under the write lock,
// verifying each table's CRC32C trailer. The set must be identically shaped
// (same hasher configuration) as the writer, and [lo, hi) is the row range it
// indexes (the whole layer, or one shard's rows): Table.Deserialize holds
// every stored id to it. A checksum mismatch is reported as an error wrapping
// ErrChecksum, naming the damaged table; a payload that does not describe a
// table set wraps ErrMalformed.
func (ts *TableSet) Deserialize(r io.Reader, lo, hi int32) error {
	var hdr [3]uint64 // sentinel, format version, table count
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("lsh: reading table set header: %w", err)
	}
	if hdr[0] != setSentinel {
		return fmt.Errorf("%w: table set does not open with the format sentinel", ErrMalformed)
	}
	if hdr[1] != setFormatCRC {
		return fmt.Errorf("%w: unsupported table set format %d", ErrMalformed, hdr[1])
	}
	if hdr[2] != uint64(len(ts.tables)) {
		return fmt.Errorf("%w: stream has %d tables, set has %d", ErrMalformed, hdr[2], len(ts.tables))
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i, t := range ts.tables {
		// Tee the table payload through a checksum so the trailer can be
		// verified against exactly the bytes the parse consumed.
		crc := crc32.New(castagnoli)
		if err := t.Deserialize(io.TeeReader(r, crc), lo, hi); err != nil {
			return fmt.Errorf("lsh: table %d: %w", i, err)
		}
		var want uint32
		if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
			return fmt.Errorf("lsh: reading table %d checksum: %w", i, err)
		}
		if got := crc.Sum32(); got != want {
			return fmt.Errorf("lsh: table %d: computed %#x, stored %#x: %w", i, got, want, ErrChecksum)
		}
	}
	return nil
}
