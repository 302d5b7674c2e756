package layer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/slide-cpu/slide/internal/bf16"
)

// Serialization of layer parameters and optimizer state. The format is a
// fixed field order in little-endian; the network-level header carries
// versioning. Gradients are transient and not persisted — save between
// batches, not mid-batch.

func writeU32s(w io.Writer, vs ...uint32) error {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], v)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// errShape marks a stream whose header declares another shape, precision or
// activation than the layer or configuration it is being decoded for.
var errShape = errors.New("layer: stream does not match the expected shape")

// expectU32s reads len(want) header words and fails with errShape unless
// they are exactly want. Every decoder starts here, so a header is only ever
// compared with what the caller already holds, never used to size anything.
func expectU32s(r io.Reader, what string, want []uint32) error {
	got := make([]uint32, len(want))
	for i := range got {
		if err := readU32(r, &got[i]); err != nil {
			return fmt.Errorf("layer: reading %s: %w", what, err)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%w: %s is %d, expected %d", errShape, what, got, want)
	}
	return nil
}

func readU32(r io.Reader, v *uint32) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint32(b[:])
	return nil
}

func writeF32s(w io.Writer, s []float32) error {
	var b [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readF32s(r io.Reader, s []float32) error {
	var b [4]byte
	for i := range s {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		s[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return nil
}

func writeBF16s(w io.Writer, s []bf16.BF16) error {
	var b [2]byte
	for _, v := range s {
		binary.LittleEndian.PutUint16(b[:], v.Bits())
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readBF16s(r io.Reader, s []bf16.BF16) error {
	var b [2]byte
	for i := range s {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		s[i] = bf16.FromBits(binary.LittleEndian.Uint16(b[:]))
	}
	return nil
}

// A layer's checkpoint section is its dimensions and precision, the weight
// vectors, each vector's two ADAM moments, then the bias with its moments.
// The caller provides buffering (one bufio around the whole stream); a layer
// writes, and reads back, exactly its own bytes, so several can share one
// stream.

// eachF32Section visits, in checkpoint order, everything that follows the
// weight vectors.
func (t *trainState) eachF32Section(visit func([]float32) error) error {
	for i := range t.m {
		if err := visit(t.m[i]); err != nil {
			return err
		}
		if err := visit(t.v[i]); err != nil {
			return err
		}
	}
	for _, s := range [][]float32{t.bias, t.mb, t.vb} {
		if err := visit(s); err != nil {
			return err
		}
	}
	return nil
}

func (t *trainState) writeCheckpoint(bw io.Writer, in, out int) error {
	if err := writeU32s(bw, uint32(in), uint32(out), uint32(t.opts.Precision)); err != nil {
		return err
	}
	if err := t.w.each(func(i int32) error { return t.w.writeVec(bw, i) }); err != nil {
		return err
	}
	return t.eachF32Section(func(s []float32) error { return writeF32s(bw, s) })
}

// readCheckpoint restores what writeCheckpoint wrote into a layer constructed
// with the same dimensions and precision; any other header is errShape.
func (t *trainState) readCheckpoint(br io.Reader, kind string, in, out int) error {
	if err := expectU32s(br, kind+" header", []uint32{uint32(in), uint32(out), uint32(t.opts.Precision)}); err != nil {
		return err
	}
	if err := t.w.each(func(i int32) error { return t.w.readVec(br, i) }); err != nil {
		return err
	}
	return t.eachF32Section(func(s []float32) error { return readF32s(br, s) })
}

// Serialize writes the layer's dimensions, precision, weights, biases and
// ADAM moments.
func (l *ColLayer) Serialize(bw io.Writer) error { return l.writeCheckpoint(bw, l.In, l.Out) }

// Deserialize restores state written by Serialize into a layer constructed
// with matching dimensions and precision, reading exactly those bytes.
func (l *ColLayer) Deserialize(br io.Reader) error {
	return l.readCheckpoint(br, "ColLayer", l.In, l.Out)
}

// Serialize writes the layer's dimensions, precision, weights, biases and
// ADAM moments.
func (l *RowLayer) Serialize(bw io.Writer) error { return l.writeCheckpoint(bw, l.In, l.Out) }

// Deserialize restores state written by Serialize into a layer constructed
// with matching dimensions and precision, reading exactly those bytes.
func (l *RowLayer) Deserialize(br io.Reader) error {
	return l.readCheckpoint(br, "RowLayer", l.In, l.Out)
}
