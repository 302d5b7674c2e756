package layer

import (
	"io"
	"math/rand/v2"
	"sync"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/simd"
)

// store holds a layer's weight vectors — the rows of a RowLayer, the columns
// of a ColLayer — in exactly one of the two element types of §4.4: float32
// (FP32, BF16Act) or bfloat16 (BF16Both). It is the only code that knows
// which. bfloat16 is a storage format only: the forward and backward math
// reads vectors through row and block, which hand float32 storage over as it
// is and widen bfloat16 vectors into float32 scratch on load, so every pass
// runs the float32 kernels on either. Everything that allocates, copies,
// shares, encodes, decodes or scans vectors goes through the methods below,
// so each of those operations exists once for both layer kinds and both
// element types.
//
// A store is a value holding slice headers: copying one aliases the same
// vectors, which is how a layer's training state and its live forward view
// see the same weights.
type store struct {
	f32 [][]float32
	bf  [][]bf16.BF16
}

// newStore allocates n zeroed vectors of vecLen elements in the element type
// prec stores weights in.
func newStore(n, vecLen int, prec Precision, p Placement) store {
	return allocStore(n, vecLen, prec == BF16Both, p)
}

func allocStore(n, vecLen int, bf bool, p Placement) store {
	if !bf {
		return store{f32: vectors2D(n, vecLen, p)}
	}
	vecs := make([][]bf16.BF16, n)
	if p == Contiguous {
		backing := make([]bf16.BF16, n*vecLen)
		for i := range vecs {
			vecs[i] = backing[i*vecLen : (i+1)*vecLen : (i+1)*vecLen]
		}
	} else {
		for i := range vecs {
			vecs[i] = make([]bf16.BF16, vecLen)
		}
	}
	return store{bf: vecs}
}

// n returns the number of vectors.
func (s store) n() int { return len(s.f32) + len(s.bf) }

// vecLen returns the length every vector shares.
func (s store) vecLen() int {
	if s.bf != nil {
		return len(s.bf[0])
	}
	return len(s.f32[0])
}

// initGaussian fills the vectors with N(0, scale²) values from a
// deterministic PCG stream; vector i always receives the same values
// regardless of placement or precision, so layout/precision ablations start
// from identical (up to rounding) parameters.
func (s store) initGaussian(scale float64, seed uint64) {
	for i := range s.n() {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		if s.bf != nil {
			for j := range s.bf[i] {
				s.bf[i][j] = bf16.FromFloat32(float32(rng.NormFloat64() * scale))
			}
		} else {
			for j := range s.f32[i] {
				s.f32[i][j] = float32(rng.NormFloat64() * scale)
			}
		}
	}
}

// writeVec writes vector i's elements, little-endian at their stored width.
func (s store) writeVec(w io.Writer, i int32) error {
	if s.bf != nil {
		return writeBF16s(w, s.bf[i])
	}
	return writeF32s(w, s.f32[i])
}

// readVec fills vector i in place from the bytes writeVec wrote.
func (s store) readVec(r io.Reader, i int32) error {
	if s.bf != nil {
		return readBF16s(r, s.bf[i])
	}
	return readF32s(r, s.f32[i])
}

// each calls f for every vector index in order, stopping at the first error
// (write every vector, read every vector).
func (s store) each(f func(i int32) error) error {
	for i := range s.n() {
		if err := f(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// clone deep-copies the vectors into one contiguous block (snapshots always
// use the optimized placement regardless of the source layout).
func (s store) clone() store {
	c := allocStore(s.n(), s.vecLen(), s.bf != nil, Contiguous)
	for i := range s.bf {
		copy(c.bf[i], s.bf[i])
	}
	for i := range s.f32 {
		copy(c.f32[i], s.f32[i])
	}
	return c
}

// share returns a store with its own vector table whose every entry still
// points at s's vector — the start of a copy-on-write: setCopy and setRead
// then replace the entries that differ, and s, immutable by the snapshot
// contract, is never written through.
func (s store) share() store {
	return store{f32: append([][]float32(nil), s.f32...), bf: append([][]bf16.BF16(nil), s.bf...)}
}

// setCopy points entry i at a fresh copy of src's vector i.
func (s store) setCopy(i int32, src store) {
	if s.bf != nil {
		s.bf[i] = append([]bf16.BF16(nil), src.bf[i]...)
	} else {
		s.f32[i] = append([]float32(nil), src.f32[i]...)
	}
}

// setRead points entry i at a fresh vector read from r.
func (s store) setRead(r io.Reader, i int32) error {
	if s.bf != nil {
		s.bf[i] = make([]bf16.BF16, s.vecLen())
	} else {
		s.f32[i] = make([]float32, s.vecLen())
	}
	return s.readVec(r, i)
}

// firstNonFinite returns the index of vector i's first NaN or Inf, or -1.
func (s store) firstNonFinite(i int) int {
	if s.bf != nil {
		return health.FirstNonFiniteBF16(s.bf[i])
	}
	return health.FirstNonFinite32(s.f32[i])
}

// widening is a pass's scratch for reading bfloat16 vectors as float32: buf
// holds the widened values, rows the views of a widened block.
type widening struct {
	buf  []float32
	rows [][]float32
}

// widenings pools the scratch of passes over bfloat16 storage, so that a
// pass reuses it from call to call instead of allocating.
var widenings = sync.Pool{New: func() any { return new(widening) }}

// widening draws scratch for n vectors at once from the pool when s is
// bfloat16; release hands it back. Float32 storage needs none and gets nil,
// without touching the pool.
func (s store) widening(n int) *widening {
	if s.bf == nil {
		return nil
	}
	wb := widenings.Get().(*widening)
	wb.buf = grow(wb.buf, n*s.vecLen())
	return wb
}

// release returns wb to the pool; nil is a no-op.
func (wb *widening) release() {
	if wb != nil {
		widenings.Put(wb)
	}
}

// row returns vector i as float32: float32 storage as it is (read-only), or
// the bfloat16 vector widened into wb with ks. Widening is exact, so the
// kernel tier never changes a bit.
func (s store) row(ks *simd.Kernels, i int, wb *widening) []float32 {
	if s.bf == nil {
		return s.f32[i]
	}
	return s.widen(ks, i, wb)
}

// widen is row's bfloat16 half, kept out of line so that row stays cheap
// enough to inline into the walks' loops.
//
//go:noinline
func (s store) widen(ks *simd.Kernels, i int, wb *widening) []float32 {
	v := wb.buf[:len(s.bf[i])]
	ks.WidenBF16(v, s.bf[i])
	return v
}

// block returns vectors [lo, hi) as float32 rows: float32 storage as it is,
// or the bfloat16 vectors widened into wb (drawn for at least hi-lo).
func (s store) block(ks *simd.Kernels, lo, hi int, wb *widening) [][]float32 {
	if s.bf == nil {
		return s.f32[lo:hi]
	}
	n := s.vecLen()
	wb.rows = grow(wb.rows, hi-lo)
	for k := range wb.rows {
		v := wb.buf[k*n : (k+1)*n : (k+1)*n]
		ks.WidenBF16(v, s.bf[lo+k])
		wb.rows[k] = v
	}
	return wb.rows
}
