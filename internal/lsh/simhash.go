package lsh

import (
	"fmt"
	"sync"

	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// SimHash is the signed-random-projection family, used by the paper for the
// Text8 workload (K=9, L=50).
//
// Bit k of table t is the sign of the projection of the input onto a
// pseudo-random ±1 hyperplane whose entries are derived from a splitmix64 of
// (seed, bit, feature). Up to PrecomputeLimit bytes the K·L hyperplanes are
// materialized at construction as one contiguous row-major float32 matrix
// [K·L][dim], and a fingerprint is a matrix-vector product through the
// active kernel table — K·L calls of the same Dot kernel the layers use
// (§4.2–4.3), so hashing runs at kernel speed on every tier with no kernel
// of its own. Above the limit the entries are derived lazily per non-zero to
// bound memory. Dot reductions differ per tier at the rounding edge, so a
// bit whose projection is within rounding of zero may differ between tiers
// and between the two paths (DESIGN.md "SimHash projections").
type SimHash struct {
	k    int
	l    int
	dim  int
	seed uint64

	// planes is the ±1 matrix, hyperplane b in planes[b*dim:(b+1)*dim]. nil
	// when it would exceed PrecomputeLimit.
	planes []float32

	scratch sync.Pool // *simhashScratch
}

// PrecomputeLimit is the byte budget of the materialized hyperplane matrix
// (K·L·dim float32 entries); larger hashers derive entries lazily. The
// paper's Text8 shape (K=9, L=50, 200 hidden units) takes 360 KB.
const PrecomputeLimit = 64 << 20

type simhashScratch struct {
	acc []float32 // K*L projections
	// dense is the scatter target of sparse inputs on the matrix path,
	// allocated on first use and kept all-zero between calls.
	dense []float32
}

// SimHashConfig parameterizes NewSimHash.
type SimHashConfig struct {
	// K is the number of sign bits per table (paper: 9 for Text8).
	K int
	// L is the number of tables (paper: 50).
	L int
	// Dim is the input dimensionality.
	Dim int
	// Seed drives the hyperplane derivation.
	Seed uint64
}

// NewSimHash builds a SimHash hasher.
func NewSimHash(cfg SimHashConfig) (*SimHash, error) {
	if cfg.K <= 0 || cfg.L <= 0 {
		return nil, fmt.Errorf("lsh: SimHash requires K>0 and L>0, got K=%d L=%d", cfg.K, cfg.L)
	}
	if cfg.K > 30 {
		return nil, fmt.Errorf("lsh: SimHash K=%d produces an unindexable bucket space", cfg.K)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lsh: SimHash requires Dim>0, got %d", cfg.Dim)
	}
	s := &SimHash{k: cfg.K, l: cfg.L, dim: cfg.Dim, seed: cfg.Seed}
	n := cfg.K * cfg.L
	if n*cfg.Dim <= PrecomputeLimit/4 {
		s.planes = make([]float32, n*cfg.Dim)
		for b := 0; b < n; b++ {
			plane := s.planes[b*cfg.Dim : (b+1)*cfg.Dim]
			for f := range plane {
				plane[f] = s.derive(b, int32(f))
			}
		}
	}
	s.scratch.New = func() any {
		return &simhashScratch{acc: make([]float32, n)}
	}
	return s, nil
}

// Tables implements Hasher.
func (s *SimHash) Tables() int { return s.l }

// Bits implements Hasher.
func (s *SimHash) Bits() int { return s.k }

// Dim returns the configured input dimensionality.
func (s *SimHash) Dim() int { return s.dim }

// derive computes the ±1 hyperplane entry (bitIdx, feature) from the hash.
func (s *SimHash) derive(bitIdx int, feature int32) float32 {
	h := splitmix64(s.seed ^ uint64(bitIdx)<<32 ^ uint64(uint32(feature)))
	if h&1 == 0 {
		return 1
	}
	return -1
}

// Hash implements Hasher for sparse inputs. On the matrix path the input is
// scattered into pooled dense scratch and projected exactly as HashDense
// projects it, so the two agree bit for bit.
func (s *SimHash) Hash(v sparse.Vector, out []uint32) {
	if len(out) < s.l {
		panic("lsh: SimHash.Hash out slice too short")
	}
	for _, f := range v.Indices {
		if int(f) >= s.dim || f < 0 {
			panic(fmt.Sprintf("lsh: feature index %d out of range [0,%d)", f, s.dim))
		}
	}
	sc := s.scratch.Get().(*simhashScratch)
	defer s.scratch.Put(sc)

	if s.planes == nil {
		clear(sc.acc)
		for n, f := range v.Indices {
			s.addDerived(sc.acc, f, v.Values[n])
		}
	} else {
		if sc.dense == nil {
			sc.dense = make([]float32, s.dim)
		}
		for n, f := range v.Indices {
			sc.dense[f] += v.Values[n]
		}
		s.project(sc.dense, sc.acc)
		for _, f := range v.Indices {
			sc.dense[f] = 0
		}
	}
	s.assemble(sc.acc, out)
}

// HashDense implements Hasher for dense vectors. len(vals) must equal Dim.
func (s *SimHash) HashDense(vals []float32, out []uint32) {
	if len(out) < s.l {
		panic("lsh: SimHash.HashDense out slice too short")
	}
	if len(vals) != s.dim {
		panic(fmt.Sprintf("lsh: SimHash.HashDense input has %d values, hasher Dim is %d", len(vals), s.dim))
	}
	sc := s.scratch.Get().(*simhashScratch)
	defer s.scratch.Put(sc)

	if s.planes == nil {
		clear(sc.acc)
		for f, val := range vals {
			if val != 0 {
				s.addDerived(sc.acc, int32(f), val)
			}
		}
	} else {
		s.project(vals, sc.acc)
	}
	s.assemble(sc.acc, out)
}

// project fills acc[b] with the projection of vals (length Dim) onto
// hyperplane b: one Dot of the active kernel tier per hyperplane.
func (s *SimHash) project(vals, acc []float32) {
	dot := simd.Active().Dot
	for b := range acc {
		acc[b] = dot(s.planes[b*s.dim:(b+1)*s.dim], vals)
	}
}

// addDerived adds one non-zero's contribution to every projection on the
// lazy path.
func (s *SimHash) addDerived(acc []float32, feature int32, val float32) {
	for b := range acc {
		acc[b] += val * s.derive(b, feature)
	}
}

func (s *SimHash) assemble(acc []float32, out []uint32) {
	for t := 0; t < s.l; t++ {
		var h uint32
		base := t * s.k
		for k := 0; k < s.k; k++ {
			h <<= 1
			if acc[base+k] > 0 {
				h |= 1
			}
		}
		out[t] = h
	}
}
