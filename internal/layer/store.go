package layer

import (
	"io"
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/health"
)

// store holds a layer's weight vectors — the rows of a RowLayer, the columns
// of a ColLayer — in exactly one of the two element types of §4.4: float32
// (FP32, BF16Act) or bfloat16 (BF16Both). It is the only code that knows
// which. The forward and backward math hands the concrete slice to the
// kernel that takes it (ks.DotManyBias(w.vecs.f32, …)); everything that
// allocates, copies, shares, encodes, decodes or scans vectors goes through
// the methods below, so each of those operations exists once for both layer
// kinds and both element types.
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

// elemBytes returns the resident size of one weight.
func (s store) elemBytes() int {
	if s.bf != nil {
		return 2
	}
	return 4
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

// expand returns vector i as float32: a direct read-only view of float32
// storage, or the bfloat16 vector widened into buf (len >= the vector's).
func (s store) expand(i int, buf []float32) []float32 {
	if s.bf == nil {
		return s.f32[i]
	}
	buf = buf[:len(s.bf[i])]
	bf16.Expand(buf, s.bf[i])
	return buf
}
