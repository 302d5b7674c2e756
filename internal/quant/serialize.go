package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
)

// Wire codecs for quantized views, mirroring the layer view codecs (same
// little-endian framing, same COW patch semantics) at the packed byte width.
//
// View layout:     [In u32][Out u32][Bits u32] scales[Out] bias[Out] rows
// Delta layout:    [In u32][Out u32][Bits u32][n u32] then per touched row
//                  [id u32][scale f32][row bytes][bias f32], ids ascending.
//
// Row sums are NOT on the wire: they are a pure function of the packed
// bytes, recomputed on read — Out int32s of wire saved per message, and one
// less way for a corrupted payload to desynchronize the dequant correction.

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader, v *uint32) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint32(b[:])
	return nil
}

func writeF32s(w io.Writer, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	_, err := w.Write(buf)
	return err
}

func readF32s(r io.Reader, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// writeRow emits row id's packed bytes.
func (q *RowQ) writeRow(w io.Writer, id int32) error {
	row := q.rows8[id]
	buf := make([]byte, len(row))
	for i, v := range row {
		buf[i] = uint8(v)
	}
	_, err := w.Write(buf)
	return err
}

// readRow8 fills an int8 row from the wire and returns its element sum.
func readRow8(r io.Reader, dst []int8) (int32, error) {
	buf := make([]byte, len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	var sum int32
	for i, b := range buf {
		v := int8(b)
		dst[i] = v
		sum += int32(v)
	}
	return sum, nil
}

// SerializeView writes the full quantized view.
func (q *RowQ) SerializeView(out io.Writer) error {
	for _, v := range []uint32{uint32(q.In), uint32(q.Out), uint32(q.Bits)} {
		if err := writeU32(out, v); err != nil {
			return err
		}
	}
	if err := writeF32s(out, q.scales); err != nil {
		return err
	}
	if err := writeF32s(out, q.bias); err != nil {
		return err
	}
	for i := 0; i < q.Out; i++ {
		if err := q.writeRow(out, int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// errShape marks a stream whose header declares another shape or bit width
// than the one it is being decoded for.
var errShape = errors.New("quant: stream does not match the expected shape")

// expectHeader reads len(want) header words and fails with errShape unless
// they are exactly want: a header is compared with what the caller already
// holds, never used to size an allocation.
func expectHeader(r io.Reader, what string, want ...uint32) error {
	got := make([]uint32, len(want))
	for i := range got {
		if err := readU32(r, &got[i]); err != nil {
			return fmt.Errorf("quant: reading %s: %w", what, err)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%w: %s is %d, expected %d", errShape, what, got, want)
	}
	return nil
}

// ReadRowQ reconstructs a view written by SerializeView, recomputing the
// per-row sums from the packed bytes. The caller states the shape and bit
// width it expects; a stream that declares another is an error, returned
// before any storage is allocated.
func ReadRowQ(r io.Reader, in, out, bits int) (*RowQ, error) {
	if in <= 0 || out <= 0 || in > MaxDotLen {
		return nil, fmt.Errorf("quant: view declared as %dx%d (row length limit %d)", in, out, MaxDotLen)
	}
	if err := validBits(bits); err != nil {
		return nil, err
	}
	if err := expectHeader(r, "view header", uint32(in), uint32(out), uint32(bits)); err != nil {
		return nil, err
	}
	q := newRowQ(in, out, bits)
	if err := readF32s(r, q.scales); err != nil {
		return nil, err
	}
	if err := readF32s(r, q.bias); err != nil {
		return nil, err
	}
	for i := 0; i < q.Out; i++ {
		var err error
		if q.rowSums[i], err = readRow8(r, q.rows8[i]); err != nil {
			return nil, fmt.Errorf("quant: reading row %d: %w", i, err)
		}
	}
	return q, nil
}

// SerializeRowsDelta writes the sparse patch for ids (ascending): touched
// rows with their scales and biases; nothing else is on the wire.
func (q *RowQ) SerializeRowsDelta(out io.Writer, ids []int32) error {
	for _, v := range []uint32{uint32(q.In), uint32(q.Out), uint32(q.Bits), uint32(len(ids))} {
		if err := writeU32(out, v); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if err := writeU32(out, uint32(id)); err != nil {
			return err
		}
		if err := writeF32s(out, q.scales[id:id+1]); err != nil {
			return err
		}
		if err := q.writeRow(out, id); err != nil {
			return err
		}
		if err := writeF32s(out, q.bias[id:id+1]); err != nil {
			return err
		}
	}
	return nil
}

// PatchRows applies a SerializeRowsDelta payload, returning a new view that
// shares every untouched row with q (copy-on-write) plus the ascending ids
// the payload named. q itself is never modified. The payload's shape and
// bit width must match q's.
func (q *RowQ) PatchRows(r io.Reader) (*RowQ, []int32, error) {
	if err := expectHeader(r, "rows delta header", uint32(q.In), uint32(q.Out), uint32(q.Bits)); err != nil {
		return nil, nil, err
	}
	var n uint32
	if err := readU32(r, &n); err != nil {
		return nil, nil, fmt.Errorf("quant: reading rows delta count: %w", err)
	}
	out := uint32(q.Out)
	if n > out {
		return nil, nil, fmt.Errorf("quant: rows delta names %d rows, view has %d", n, out)
	}
	p := &RowQ{In: q.In, Out: q.Out, Bits: q.Bits}
	p.scales = append([]float32(nil), q.scales...)
	p.rowSums = append([]int32(nil), q.rowSums...)
	p.bias = append([]float32(nil), q.bias...)
	p.rows8 = append([][]int8(nil), q.rows8...)
	ids := make([]int32, 0, n)
	last := int64(-1)
	for k := uint32(0); k < n; k++ {
		var id uint32
		if err := readU32(r, &id); err != nil {
			return nil, nil, fmt.Errorf("quant: reading rows delta record %d: %w", k, err)
		}
		if int64(id) <= last || id >= out {
			return nil, nil, fmt.Errorf("quant: rows delta id %d out of order or range (prev %d, rows %d)", id, last, out)
		}
		last = int64(id)
		ids = append(ids, int32(id))
		if err := readF32s(r, p.scales[id:id+1]); err != nil {
			return nil, nil, err
		}
		var err error
		p.rows8[id] = make([]int8, q.In)
		if p.rowSums[id], err = readRow8(r, p.rows8[id]); err != nil {
			return nil, nil, err
		}
		if err := readF32s(r, p.bias[id:id+1]); err != nil {
			return nil, nil, err
		}
	}
	return p, ids, nil
}

// WriteRowsDelta quantizes exactly the touched rows of an f32/BF16 view and
// writes them in SerializeRowsDelta format — the trainer-side delta encoder.
// Quantizing only the journaled rows keeps delta publish O(touched), never
// O(model); bit-identity with a receiver-side full quantize holds because
// row quantization is a pure per-row function. Touched rows containing
// NaN/Inf refuse to encode (error wraps ErrNonFinite).
func WriteRowsDelta(w io.Writer, src *layer.RowWeights, ids []int32, bits int) error {
	if err := validBits(bits); err != nil {
		return err
	}
	if src.In > MaxDotLen {
		return fmt.Errorf("quant: row length %d exceeds MaxDotLen %d", src.In, MaxDotLen)
	}
	for _, v := range []uint32{uint32(src.In), uint32(src.Out), uint32(bits), uint32(len(ids))} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	ks := simd.Active()
	buf := make([]float32, src.In)
	// One record, written whole: [id u32][scale f32][row bytes][bias f32]. The
	// row is packed in place, through an int8 view of its bytes.
	rec := make([]byte, 8+src.In+4)
	row8 := unsafe.Slice((*int8)(unsafe.Pointer(&rec[8])), src.In)
	bias := src.Bias()
	for _, id := range ids {
		row := src.RowF32(int(id), buf)
		scale, _, finite := ks.QuantizeRow8(row, row8)
		if !finite {
			return fmt.Errorf("quant: %w: row %d element %d", ErrNonFinite, id, health.FirstNonFinite32(row))
		}
		if health.FirstNonFinite32(bias[id:id+1]) >= 0 {
			return fmt.Errorf("quant: %w: bias[%d]", ErrNonFinite, id)
		}
		binary.LittleEndian.PutUint32(rec[0:], uint32(id))
		binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(scale))
		binary.LittleEndian.PutUint32(rec[8+src.In:], math.Float32bits(bias[id]))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// PackedBytes returns the serialized size of the view — the "snapshot
// bytes" number /stats and the bench report: header + scales + biases +
// packed rows.
func (q *RowQ) PackedBytes() int64 {
	return 12 + 8*int64(q.Out) + int64(q.Out)*int64(q.In)
}
