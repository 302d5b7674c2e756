package layer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func u32s(vs ...uint32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// oversizeHeaders are the two view headers a decoder that sized its storage
// from the stream died on: the first overflows makeslice, the second asks for
// 64 GiB. With a fourth word they are ColWeights headers.
var oversizeHeaders = [][]byte{u32s(1<<28, 1<<28, 0, 0), u32s(1<<28, 64, 0, 0)}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadWeightsRefusesOversizeHeader: a 12-byte payload used to panic a
// replica (makeslice: len out of range) because the view readers allocated
// what the header declared before anyone compared it with the configured
// shape. The readers now take that shape and refuse any other header before
// allocating.
func TestReadWeightsRefusesOversizeHeader(t *testing.T) {
	for _, hdr := range oversizeHeaders {
		var errRow, errCol error
		got := allocatedBy(func() {
			_, errRow = ReadRowWeights(bytes.NewReader(hdr[:12]), pinRowIn, pinRowOut, FP32)
			_, errCol = ReadColWeights(bytes.NewReader(hdr), pinColIn, pinColOut, FP32, ReLU)
		})
		if !errors.Is(errRow, errShape) || !errors.Is(errCol, errShape) {
			t.Errorf("header % x: ReadRowWeights = %v, ReadColWeights = %v, want errShape from both", hdr, errRow, errCol)
		}
		if got > 16<<10 {
			t.Errorf("header % x: refusing it allocated %d bytes", hdr, got)
		}
	}
	// The declared shape is checked too: the caller's own numbers must not
	// reach makeslice unchecked either.
	if _, err := ReadRowWeights(bytes.NewReader(u32s(0, 4, 0)), 0, 4, FP32); err == nil {
		t.Error("ReadRowWeights accepted a zero input dimension")
	}
	if _, err := ReadColWeights(bytes.NewReader(nil), 4, -1, FP32, ReLU); err == nil {
		t.Error("ReadColWeights accepted a negative output dimension")
	}
}

// fuzzView is the small trained view a fuzzed kind byte selects — bit 0 picks
// ColWeights over RowWeights, the next bits one of the three precisions — in
// its codec-facing form, with its read and patch entry points.
type fuzzView struct {
	view  wireView
	read  func(b *bytes.Reader) (wireView, error)
	patch func(b *bytes.Reader) (wireView, []int32, error)
	nVecs int
}

func newFuzzView(kind byte) fuzzView {
	o := Options{Precision: Precision((kind >> 1) % 3)}
	if kind&1 == 1 {
		w := pinnedCol(o).SnapshotWeights()
		return fuzzView{view: w.wire(), nVecs: pinColIn,
			read: func(b *bytes.Reader) (wireView, error) {
				got, err := ReadColWeights(b, pinColIn, pinColOut, o.Precision, ReLU)
				return got.wire(), err
			},
			patch: func(b *bytes.Reader) (wireView, []int32, error) {
				got, ids, err := w.PatchCols(b)
				return got.wire(), ids, err
			}}
	}
	w := pinnedRow(o).SnapshotWeights()
	return fuzzView{view: w.wire(), nVecs: pinRowOut,
		read: func(b *bytes.Reader) (wireView, error) {
			got, err := ReadRowWeights(b, pinRowIn, pinRowOut, o.Precision)
			return got.wire(), err
		},
		patch: func(b *bytes.Reader) (wireView, []int32, error) {
			got, ids, err := w.PatchRows(b)
			return got.wire(), ids, err
		}}
}

func allFuzzViews() (views [6]fuzzView) {
	for kind := range views {
		views[kind] = newFuzzView(byte(kind))
	}
	return views
}

// FuzzReadWeights: whatever the bytes, Read{Row,Col}Weights returns an error
// or a view that re-serialises to exactly the bytes it consumed.
func FuzzReadWeights(f *testing.F) {
	views := allFuzzViews()
	for kind, v := range views {
		kind := byte(kind)
		var valid bytes.Buffer
		if err := v.view.write(&valid); err != nil {
			f.Fatal(err)
		}
		f.Add(kind, valid.Bytes())
		f.Add(kind, valid.Bytes()[:valid.Len()/2]) // truncated
		f.Add(kind, append(valid.Bytes(), 1, 2, 3))
	}
	for _, hdr := range oversizeHeaders {
		f.Add(byte(0), hdr[:12])
		f.Add(byte(1), hdr)
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		r := bytes.NewReader(data)
		got, err := views[kind%6].read(r)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := got.write(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("decoded view re-serialises to %d bytes that differ from the %d consumed", again.Len(), len(consumed))
		}
	})
}

// FuzzPatch: whatever the bytes, Patch{Rows,Cols} returns an error or a view
// whose delta over the returned ids — ascending and in range — is exactly
// the bytes it consumed.
func FuzzPatch(f *testing.F) {
	views := allFuzzViews()
	for kind, v := range views {
		kind := byte(kind)
		for _, ids := range pinDeltaIDs(v.nVecs) {
			var valid bytes.Buffer
			if err := v.view.writeDelta(&valid, ids); err != nil {
				f.Fatal(err)
			}
			f.Add(kind, valid.Bytes())
			f.Add(kind, valid.Bytes()[:valid.Len()-3]) // truncated
		}
		hdr := v.view.hdr
		f.Add(kind, u32s(hdr[0], hdr[1], hdr[2], 2, 5, 4))        // out of order; fails at the second id whatever follows
		f.Add(kind, u32s(hdr[0], hdr[1], hdr[2], 1, 1<<31))       // id out of range
		f.Add(kind, u32s(hdr[0], hdr[1], hdr[2], 1<<30))          // more records than vectors
		f.Add(kind, u32s(hdr[0], hdr[1], (hdr[2]+1)%3, 0))        // another precision
		f.Add(kind, append(u32s(1<<28, 1<<28, 0), u32s(1, 0)...)) // the oversize header
	}
	// A repeated id, in a payload whose first record is intact.
	v := views[0]
	var one bytes.Buffer
	if err := v.view.writeDelta(&one, []int32{3}); err != nil {
		f.Fatal(err)
	}
	repeated := append(u32s(v.view.hdr[0], v.view.hdr[1], v.view.hdr[2], 2), one.Bytes()[16:]...)
	f.Add(byte(0), append(repeated, one.Bytes()[16:]...))

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		v := views[kind%6]
		r := bytes.NewReader(data)
		got, ids, err := v.patch(r)
		if err != nil {
			return
		}
		for k, id := range ids {
			if id < 0 || int(id) >= v.nVecs || (k > 0 && id <= ids[k-1]) {
				t.Fatalf("accepted ids %v: not ascending within [0, %d)", ids, v.nVecs)
			}
		}
		var again bytes.Buffer
		if err := got.writeDelta(&again, ids); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("patched view's delta over %v is %d bytes that differ from the %d consumed", ids, again.Len(), len(consumed))
		}
	})
}
