package lsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// testSet builds a small, deterministic TableSet with a few populated
// buckets per table.
func testSet(t *testing.T) *TableSet {
	t.Helper()
	h, err := NewSimHash(SimHashConfig{K: 4, L: 3, Dim: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTableSet(h, 8, FIFO, 11)
	for i, tbl := range ts.tables {
		hs := make([]uint32, 20)
		for id := range hs {
			hs[id] = uint32(i+id) % uint32(tbl.Buckets())
		}
		tbl.Build(0, hs)
	}
	return ts
}

// emptyLike builds an identically shaped, unpopulated set.
func emptyLike(t *testing.T) *TableSet {
	t.Helper()
	h, err := NewSimHash(SimHashConfig{K: 4, L: 3, Dim: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return NewTableSet(h, 8, FIFO, 11)
}

func sameContents(a, b *TableSet) bool {
	for i := range a.tables {
		ta, tb := a.tables[i], b.tables[i]
		for h := uint32(0); int(h) < ta.Buckets(); h++ {
			if !bytes.Equal(int32Bytes(ta.Query(h)), int32Bytes(tb.Query(h))) {
				return false
			}
		}
	}
	return true
}

func int32Bytes(ids []int32) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, ids)
	return buf.Bytes()
}

func TestTableSetChecksummedRoundTrip(t *testing.T) {
	src := testSet(t)
	var buf bytes.Buffer
	if err := src.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	dst := emptyLike(t)
	if err := dst.Deserialize(bytes.NewReader(buf.Bytes()), 0, 20); err != nil {
		t.Fatal(err)
	}
	if !sameContents(src, dst) {
		t.Fatal("round-tripped table set differs from source")
	}
}

func TestTableSetChecksumDetectsBitFlip(t *testing.T) {
	src := testSet(t)
	var buf bytes.Buffer
	if err := src.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the second table's first stored id: past the 24-byte
	// set header, the whole first table (payload + 4-byte CRC), the 8-byte
	// table header, and the 12-byte bucket header. An id flip parses fine —
	// only the checksum can catch it.
	var t0 bytes.Buffer
	if err := src.tables[0].Serialize(&t0); err != nil {
		t.Fatal(err)
	}
	pos := 24 + t0.Len() + 4 + 8 + 12
	raw := buf.Bytes()
	raw[pos] ^= 0x40
	err := emptyLike(t).Deserialize(bytes.NewReader(raw), 0, 1<<30)
	if err == nil {
		t.Fatal("bit-flipped stream deserialized without error")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("error %v does not wrap ErrChecksum", err)
	}
	if !strings.Contains(err.Error(), "table 1") {
		t.Fatalf("error %q does not name the damaged table", err)
	}
}

// TestTableSetLegacyFormatRefused: the pre-sentinel layout (a plain table
// count, then unchecksummed payloads) has no writer left and no CRC, so a
// stream in it is malformed and leaves the set as it was.
func TestTableSetLegacyFormatRefused(t *testing.T) {
	src := testSet(t)
	payloads := make([][]byte, len(src.tables))
	for i, tbl := range src.tables {
		payloads[i] = tableBytes(t, tbl)
	}
	dst := emptyLike(t)
	before := serializeSet(t, dst)
	err := dst.Deserialize(bytes.NewReader(frameLegacy(payloads...)), 0, 20)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("pre-sentinel stream: err %v, want one wrapping ErrMalformed", err)
	}
	if !bytes.Equal(serializeSet(t, dst), before) {
		t.Fatal("refused stream changed the set")
	}
}

func TestTableSetWrongShapeRejected(t *testing.T) {
	src := testSet(t)
	var buf bytes.Buffer
	if err := src.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := NewSimHash(SimHashConfig{K: 4, L: 5, Dim: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewTableSet(h, 8, FIFO, 11).Deserialize(bytes.NewReader(buf.Bytes()), 0, 20); err == nil {
		t.Fatal("mismatched table count accepted")
	}
}

// bucketSpec is one bucket of a hand-written table payload.
type bucketSpec struct {
	idx, count uint32
	ids        []int32
}

// tablePayload hand-writes a table payload, valid or not.
func tablePayload(buckets ...bucketSpec) []byte {
	le := binary.LittleEndian
	out := le.AppendUint64(nil, uint64(len(buckets)))
	for _, b := range buckets {
		out = le.AppendUint32(le.AppendUint32(le.AppendUint32(out, b.idx), b.count), uint32(len(b.ids)))
		for _, id := range b.ids {
			out = le.AppendUint32(out, uint32(id))
		}
	}
	return out
}

// TestTableDeserializeRejectsBadIDs: an id outside the row range the set
// indexes is a typed decode error, at the table and — behind a valid CRC —
// at the set, not an index-out-of-range panic in the first query's dedup.
func TestTableDeserializeRejectsBadIDs(t *testing.T) {
	for _, c := range []struct {
		id     int32
		lo, hi int32
		ok     bool
	}{
		{1 << 30, 0, 20, false},
		{-5, 0, 20, false},
		{20, 0, 20, false},
		{19, 0, 20, true},
		{0, 0, 20, true},
		{9, 10, 20, false}, // below a shard's range
		{10, 10, 20, true},
	} {
		payload := tablePayload(bucketSpec{1, 3, []int32{c.lo, c.id}}, bucketSpec{5, 1, []int32{c.lo}})
		tbl := NewTable(4, 8, FIFO, 1)
		err := tbl.Deserialize(bytes.NewReader(payload), c.lo, c.hi)
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrMalformed)) {
			t.Errorf("id %d in [%d,%d): err %v, want ok=%v wrapping ErrMalformed", c.id, c.lo, c.hi, err, c.ok)
		}
		// Whatever was read stays walkable: no bucket keeps the bad id.
		for b := uint32(0); b < 16; b++ {
			for _, id := range tbl.Query(b) {
				if id < c.lo || id >= c.hi {
					t.Errorf("id %d in [%d,%d): bucket %d holds %d after the decode", c.id, c.lo, c.hi, b, id)
				}
			}
		}

		ts := emptyLike(t)
		ts.tables = ts.tables[:1]
		err = ts.Deserialize(bytes.NewReader(frameSet(payload)), c.lo, c.hi)
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrMalformed)) {
			t.Errorf("set, id %d in [%d,%d): err %v, want ok=%v wrapping ErrMalformed", c.id, c.lo, c.hi, err, c.ok)
		}
	}
}

// TestTableDeserializeRejectsDuplicateBucket: bucket indices must be
// strictly ascending. A payload naming a bucket twice (or out of order) used
// to load, keep the later copy and re-encode to different bytes.
func TestTableDeserializeRejectsDuplicateBucket(t *testing.T) {
	for name, payload := range map[string][]byte{
		"twice":      tablePayload(bucketSpec{2, 1, []int32{1}}, bucketSpec{2, 1, []int32{3}}),
		"descending": tablePayload(bucketSpec{3, 1, []int32{1}}, bucketSpec{2, 1, []int32{3}}),
	} {
		err := NewTable(4, 8, FIFO, 1).Deserialize(bytes.NewReader(payload), 0, 20)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err %v, want one wrapping ErrMalformed", name, err)
		}
	}
	ok := tablePayload(bucketSpec{2, 1, []int32{1}}, bucketSpec{3, 9, []int32{3, 4}})
	tbl := NewTable(4, 8, FIFO, 1)
	if err := tbl.Deserialize(bytes.NewReader(ok), 0, 20); err != nil {
		t.Fatalf("ascending payload rejected: %v", err)
	}
	if !bytes.Equal(tableBytes(t, tbl), ok) {
		t.Error("accepted payload re-encodes to different bytes")
	}
}
