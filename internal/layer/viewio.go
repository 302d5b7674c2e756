package layer

import (
	"fmt"
	"io"
	"slices"
)

// Copy-on-write snapshots and the view-level wire codecs behind snapshot
// replication. SLIDE's defining property — each step touches only the
// active-set rows — means consecutive snapshots differ in a tiny fraction
// of vectors, so:
//
//   - SnapshotWeightsCOW copies only the vectors a touch journal names and
//     shares everything else with the previous (immutable) snapshot view,
//     turning publish cost from O(model) into O(touched).
//   - SerializeView/ReadColWeights/ReadRowWeights move a full view (weights
//     and bias, no optimizer state) — the replication base payload.
//   - SerializeRowsDelta/PatchRows (and the column analogs) move just the
//     touched vectors — the replication delta payload. Patching is itself
//     copy-on-write: the patched view shares untouched vectors with the view
//     it was applied to.
//
// Sharing is sound because snapshot views are immutable by contract: live
// storage mutates only under ApplyAdam/ApplyAdamAll or a stepping
// AccumulateStripe (all journaled) and
// Deserialize (which targets a fresh layer, never one with outstanding
// views).
//
// Every one of these operations, and the finite scans of finite.go, has one
// body for both view kinds: a view describes itself as a wireView, which
// spells out the two places where a RowWeights and a ColWeights really
// differ.

// wireView is what the codecs, snapshots and scans need of a forward view.
type wireView struct {
	// hdr is the view header: In, Out, precision and — first difference —
	// the activation, which only a ColWeights has. Delta and checkpoint
	// headers are its first three words.
	hdr  []uint32
	vecs store
	bias []float32 // Out values in either kind
	// rowBias is the second difference. A RowWeights bias belongs to its
	// row and moves only when the row's gradient does, so a delta carries
	// bias[id] inside row id's record. A ColWeights bias is one dense
	// vector that receives gradient every batch (Backward adds dh into
	// gbias unconditionally), so a delta ships it whole after the records.
	rowBias bool
	// where and vec name a vector in errors: "" "row", "hidden " "col".
	where, vec string
}

func (w *RowWeights) wire() wireView {
	if w == nil {
		return wireView{}
	}
	return wireView{hdr: []uint32{uint32(w.In), uint32(w.Out), uint32(w.prec)},
		vecs: w.vecs, bias: w.bias, rowBias: true, vec: "row"}
}

func (w *ColWeights) wire() wireView {
	if w == nil {
		return wireView{}
	}
	return wireView{hdr: []uint32{uint32(w.In), uint32(w.Out), uint32(w.prec), uint32(w.act)},
		vecs: w.vecs, bias: w.bias, where: "hidden ", vec: "col"}
}

// snapshot returns an immutable copy of the live view's parameters. When
// prev is a snapshot of the same shape, only the vectors in ids (ascending,
// from DrainJournal) are copied and every other one is shared with prev;
// otherwise everything is copied into one contiguous block. The bias is
// always copied whole — it is O(Out) scalars, not O(Out×In).
func (live wireView) snapshot(prev wireView, ids []int32) (store, []float32) {
	bias := slices.Clone(live.bias)
	if !slices.Equal(prev.hdr, live.hdr) {
		return live.vecs.clone(), bias
	}
	vecs := prev.vecs.share()
	for _, id := range ids {
		vecs.setCopy(id, live.vecs)
	}
	return vecs, bias
}

// SnapshotWeightsCOW deep-copies only the rows in ids (ascending, from
// DrainJournal) and shares every other row with prev. Falls back to a full
// SnapshotWeights when prev is nil or does not match the layer's shape or
// precision. Same concurrency contract as SnapshotWeights.
func (l *RowLayer) SnapshotWeightsCOW(prev *RowWeights, ids []int32) *RowWeights {
	w := l.fwd
	w.vecs, w.bias = l.fwd.wire().snapshot(prev.wire(), ids)
	return &w
}

// SnapshotWeightsCOW is the column-major analog: only the columns in ids are
// copied, the rest share prev's backing arrays.
func (l *ColLayer) SnapshotWeightsCOW(prev *ColWeights, ids []int32) *ColWeights {
	w := l.fwd
	w.vecs, w.bias = l.fwd.wire().snapshot(prev.wire(), ids)
	return &w
}

// write emits the view's header, vectors and bias — no optimizer state (a
// replica serves, it does not train). The caller provides buffering.
func (v wireView) write(out io.Writer) error {
	if err := writeU32s(out, v.hdr...); err != nil {
		return err
	}
	if err := v.vecs.each(func(i int32) error { return v.vecs.writeVec(out, i) }); err != nil {
		return err
	}
	return writeF32s(out, v.bias)
}

// read decodes what write wrote into n fresh contiguous vectors of vecLen.
// v carries only the header the caller's configuration declares: a stream
// whose header differs is refused (errShape) before anything is allocated,
// so no header, however crafted, sizes an allocation.
func (v wireView) read(r io.Reader, n, vecLen int) (store, []float32, error) {
	if n <= 0 || vecLen <= 0 {
		return store{}, nil, fmt.Errorf("layer: %s view declared as %d vectors of %d", v.vec, n, vecLen)
	}
	if err := expectU32s(r, v.vec+" view header", v.hdr); err != nil {
		return store{}, nil, err
	}
	vecs := newStore(n, vecLen, Precision(v.hdr[2]), Contiguous)
	if err := vecs.each(func(i int32) error { return vecs.readVec(r, i) }); err != nil {
		return store{}, nil, err
	}
	bias := make([]float32, v.hdr[1])
	return vecs, bias, readF32s(r, bias)
}

// SerializeView writes the view's shape, weights and bias.
func (w *ColWeights) SerializeView(out io.Writer) error { return w.wire().write(out) }

// SerializeView writes the view's shape, weights and bias.
func (w *RowWeights) SerializeView(out io.Writer) error { return w.wire().write(out) }

// ReadColWeights reconstructs a view written by SerializeView into fresh
// contiguous storage. The caller states the shape it expects; a stream that
// declares another is an error, returned before any storage is allocated.
func ReadColWeights(r io.Reader, in, out int, prec Precision, act Activation) (*ColWeights, error) {
	w := &ColWeights{In: in, Out: out, prec: prec, act: act}
	var err error
	w.vecs, w.bias, err = w.wire().read(r, in, out)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// ReadRowWeights is ReadColWeights for a row-major view.
func ReadRowWeights(r io.Reader, in, out int, prec Precision) (*RowWeights, error) {
	w := &RowWeights{In: in, Out: out, prec: prec}
	var err error
	w.vecs, w.bias, err = w.wire().read(r, out, in)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// writeDelta emits the sparse patch for ids (ascending): the first three
// header words, the id count, one [id, vector] record per id — with the
// vector's own bias appended under rowBias — and, otherwise, the whole bias
// after the records. Untouched vectors are not on the wire at all.
func (v wireView) writeDelta(out io.Writer, ids []int32) error {
	if err := writeU32s(out, v.hdr[0], v.hdr[1], v.hdr[2], uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := writeU32s(out, uint32(id)); err != nil {
			return err
		}
		if err := v.vecs.writeVec(out, id); err != nil {
			return err
		}
		if v.rowBias {
			if err := writeF32s(out, v.bias[id:id+1]); err != nil {
				return err
			}
		}
	}
	if v.rowBias {
		return nil
	}
	return writeF32s(out, v.bias)
}

// patch applies a writeDelta payload to v without modifying it: the result
// shares every vector the payload does not name with v (copy-on-write) and
// owns fresh copies of those it does. It also returns the ascending ids the
// payload named, so admission validation can scan exactly what changed. The
// payload's shape must be v's.
func (v wireView) patch(r io.Reader) (store, []float32, []int32, error) {
	fail := func(err error) (store, []float32, []int32, error) { return store{}, nil, nil, err }
	if err := expectU32s(r, v.vec+"s delta header", v.hdr[:3]); err != nil {
		return fail(err)
	}
	var n uint32
	if err := readU32(r, &n); err != nil {
		return fail(fmt.Errorf("layer: reading %ss delta count: %w", v.vec, err))
	}
	total := uint32(v.vecs.n())
	if n > total {
		return fail(fmt.Errorf("layer: %ss delta names %d %ss, view has %d", v.vec, n, v.vec, total))
	}
	vecs := v.vecs.share()
	bias := make([]float32, len(v.bias))
	if v.rowBias {
		copy(bias, v.bias)
	}
	ids := make([]int32, 0, n)
	last := int64(-1)
	for k := uint32(0); k < n; k++ {
		var id uint32
		if err := readU32(r, &id); err != nil {
			return fail(fmt.Errorf("layer: reading %ss delta record %d: %w", v.vec, k, err))
		}
		if int64(id) <= last || id >= total {
			return fail(fmt.Errorf("layer: %ss delta id %d out of order or range (prev %d, %ss %d)", v.vec, id, last, v.vec, total))
		}
		last = int64(id)
		ids = append(ids, int32(id))
		if err := vecs.setRead(r, int32(id)); err != nil {
			return fail(err)
		}
		if v.rowBias {
			if err := readF32s(r, bias[id:id+1]); err != nil {
				return fail(err)
			}
		}
	}
	if !v.rowBias {
		if err := readF32s(r, bias); err != nil {
			return fail(err)
		}
	}
	return vecs, bias, ids, nil
}

// SerializeRowsDelta writes the sparse row patch for ids (ascending): the
// view header, the id count, then one [id, row, bias] record per touched
// row. Untouched rows — and their biases, which only move when the row's
// gradient does — are not on the wire at all.
func (w *RowWeights) SerializeRowsDelta(out io.Writer, ids []int32) error {
	return w.wire().writeDelta(out, ids)
}

// SerializeColsDelta writes the sparse column patch for ids (ascending): the
// view header, the id count, one [id, column] record per touched column, then
// the full bias vector, which changes every batch.
func (w *ColWeights) SerializeColsDelta(out io.Writer, ids []int32) error {
	return w.wire().writeDelta(out, ids)
}

// PatchRows applies a SerializeRowsDelta payload to w, returning a new view
// that shares every untouched row with w (copy-on-write) plus the ascending
// ids the payload named. w itself is never modified. The payload's shape
// must match w's.
func (w *RowWeights) PatchRows(r io.Reader) (*RowWeights, []int32, error) {
	vecs, bias, ids, err := w.wire().patch(r)
	if err != nil {
		return nil, nil, err
	}
	p := *w
	p.vecs, p.bias = vecs, bias
	return &p, ids, nil
}

// PatchCols is PatchRows for a SerializeColsDelta payload.
func (w *ColWeights) PatchCols(r io.Reader) (*ColWeights, []int32, error) {
	vecs, bias, ids, err := w.wire().patch(r)
	if err != nil {
		return nil, nil, err
	}
	p := *w
	p.vecs, p.bias = vecs, bias
	return &p, ids, nil
}
