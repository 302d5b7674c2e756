package quant

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// The fuzzed decoders run against one small int8 view.
const fuzzIn, fuzzOut = 16, 10

func fuzzRowQ(t testing.TB) *RowQ {
	t.Helper()
	src := testRowWeights(t, fuzzIn, fuzzOut, 31)
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func u32s(vs ...uint32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// oversizeHeaders: a reader that sized its storage from these died in
// makeslice (the first) or asked for gigabytes (the second; In stays under
// MaxDotLen, which is all the old check bounded).
var oversizeHeaders = [][]byte{u32s(1<<28, 1<<28, 8), u32s(64, 1<<28, 8)}

// TestReadRowQRefusesOversizeHeader: ReadRowQ takes the shape its caller
// expects and refuses any other header before allocating a row.
func TestReadRowQRefusesOversizeHeader(t *testing.T) {
	for _, hdr := range oversizeHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRowQ(bytes.NewReader(hdr), fuzzIn, fuzzOut, 8)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errShape) {
			t.Errorf("header % x: ReadRowQ = %v, want errShape", hdr, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Errorf("header % x: refusing it allocated %d bytes", hdr, got)
		}
	}
	if _, err := ReadRowQ(bytes.NewReader(u32s(MaxDotLen+1, 4, 8)), MaxDotLen+1, 4, 8); err == nil {
		t.Error("ReadRowQ accepted a row longer than MaxDotLen")
	}
	if _, err := ReadRowQ(bytes.NewReader(nil), 4, 0, 8); err == nil {
		t.Error("ReadRowQ accepted a zero row count")
	}
}

// FuzzReadRowQ: whatever the bytes, ReadRowQ returns an error or a view that
// re-serialises to exactly the bytes it consumed.
func FuzzReadRowQ(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzRowQ(f).SerializeView(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2]) // truncated
	f.Add(append(valid.Bytes(), 9, 9))
	for _, hdr := range oversizeHeaders {
		f.Add(hdr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		q, err := ReadRowQ(r, fuzzIn, fuzzOut, 8)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := q.SerializeView(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("decoded view re-serialises to %d bytes that differ from the %d consumed", again.Len(), len(consumed))
		}
	})
}

// FuzzRowQPatch: whatever the bytes, PatchRows returns an error or a view
// whose delta over the returned ids — ascending and in range — is exactly
// the bytes it consumed, with row sums that match the packed rows.
func FuzzRowQPatch(f *testing.F) {
	base := fuzzRowQ(f)
	record := func(id int32) []byte { // [id, scale, row, bias], as SerializeRowsDelta frames it
		var b bytes.Buffer
		if err := base.SerializeRowsDelta(&b, []int32{id}); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()[16:]
	}
	hdr := func(n uint32) []byte { return u32s(fuzzIn, fuzzOut, 8, n) }
	for _, ids := range [][]int32{{}, {3}, {4, 5, 6, 7}, {fuzzOut - 1}} {
		var valid bytes.Buffer
		if err := base.SerializeRowsDelta(&valid, ids); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
		f.Add(valid.Bytes()[:max(0, valid.Len()-3)]) // truncated
	}
	f.Add(append(append(hdr(2), record(4)...), record(1)...)) // out of order
	f.Add(append(append(hdr(2), record(3)...), record(3)...)) // repeated
	f.Add(append(hdr(1), u32s(fuzzOut)...))                   // id out of range
	f.Add(hdr(1 << 30))                                       // more records than rows
	f.Add(append(u32s(1<<28, 1<<28, 8, 1), record(0)...))     // the oversize header
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		p, ids, err := base.PatchRows(r)
		if err != nil {
			return
		}
		for k, id := range ids {
			if id < 0 || id >= fuzzOut || (k > 0 && id <= ids[k-1]) {
				t.Fatalf("accepted ids %v: not ascending within [0, %d)", ids, fuzzOut)
			}
			var sum int32
			for _, v := range p.rows8[id] {
				sum += int32(v)
			}
			if sum != p.rowSums[id] {
				t.Fatalf("row %d: stored sum %d, rows sum to %d", id, p.rowSums[id], sum)
			}
		}
		var again bytes.Buffer
		if err := p.SerializeRowsDelta(&again, ids); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("patched view's delta over %v is %d bytes that differ from the %d consumed", ids, again.Len(), len(consumed))
		}
	})
}
