package lsh

import (
	"fmt"
	"sync"

	"github.com/slide-cpu/slide/internal/simd"
)

// SimHash is the signed-random-projection family, used by the paper for the
// Text8 workload (K=9, L=50).
//
// Bit k of table t is the sign of the projection of the input onto a
// pseudo-random ±1 hyperplane whose entries are derived from a splitmix64 of
// (seed, bit, feature). Up to PrecomputeLimit bytes the K·L hyperplanes are
// materialized at construction as one contiguous row-major float32 matrix
// [K·L][dim], and a fingerprint is a matrix-vector product through the
// active kernel table's walk kernels (§4.2–4.3): the hyperplanes are the
// listed rows and the vector the activation, so one vector is one
// DotManyBias call and a batch is one DotManyBiasBatch call per WalkTile
// vectors, each hyperplane loaded once per tile — hashing runs at kernel
// speed on every tier with no kernel of its own. Both walks are bit-identical
// to the tier's Dot plus a zero bias, which no sign test can tell from Dot,
// so every bit is the sign of the tier's per-plane Dot. Above the limit the
// entries are derived lazily per non-zero to bound memory. Dot reductions
// differ per tier at the rounding edge, so a bit whose projection is within
// rounding of zero may differ between tiers and between the two paths
// (DESIGN.md "SimHash projections").
type SimHash struct {
	k    int
	l    int
	dim  int
	seed uint64

	// planes is the ±1 matrix, hyperplane b in planes[b*dim:(b+1)*dim]. nil
	// when it would exceed PrecomputeLimit.
	planes []float32
	// rows, ids and bias are the walk kernels' operands over planes: a row
	// view per hyperplane (no copy), the ids 0…K·L−1 and K·L zeros. nil
	// with planes.
	rows [][]float32
	ids  []int32
	bias []float32

	scratch sync.Pool // *simhashScratch
}

// PrecomputeLimit is the byte budget of the materialized hyperplane matrix
// (K·L·dim float32 entries); larger hashers derive entries lazily. The
// paper's Text8 shape (K=9, L=50, 200 hidden units) takes 360 KB.
const PrecomputeLimit = 64 << 20

// simhashScratch holds the K·L projections of each vector of one tile.
type simhashScratch struct {
	accs [simd.WalkTile][]float32
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
		s.rows = make([][]float32, n)
		s.ids = make([]int32, n)
		s.bias = make([]float32, n)
		for b := range n {
			plane := s.planes[b*cfg.Dim : (b+1)*cfg.Dim]
			for f := range plane {
				plane[f] = s.derive(b, int32(f))
			}
			s.rows[b], s.ids[b] = plane, int32(b)
		}
	}
	s.scratch.New = func() any {
		sc := new(simhashScratch)
		acc := make([]float32, simd.WalkTile*n)
		for j := range sc.accs {
			sc.accs[j] = acc[j*n : (j+1)*n]
		}
		return sc
	}
	return s, nil
}

// Tables implements Hasher.
func (s *SimHash) Tables() int { return s.l }

// Bits implements Hasher.
func (s *SimHash) Bits() int { return s.k }

// derive computes the ±1 hyperplane entry (bitIdx, feature) from the hash.
func (s *SimHash) derive(bitIdx int, feature int32) float32 {
	h := splitmix64(s.seed ^ uint64(bitIdx)<<32 ^ uint64(uint32(feature)))
	if h&1 == 0 {
		return 1
	}
	return -1
}

// HashDense implements Hasher for dense vectors: on the materialized path,
// one DotManyBias call of the active kernel tier projects vals onto every
// hyperplane. len(vals) must equal Dim.
func (s *SimHash) HashDense(vals []float32, out []uint32) {
	if len(out) < s.l {
		panic("lsh: SimHash.HashDense out slice too short")
	}
	if len(vals) != s.dim {
		panic(fmt.Sprintf("lsh: SimHash.HashDense input has %d values, hasher Dim is %d", len(vals), s.dim))
	}
	sc := s.scratch.Get().(*simhashScratch)
	defer s.scratch.Put(sc)

	acc := sc.accs[0]
	if s.planes == nil {
		clear(acc)
		for f, val := range vals {
			if val != 0 {
				s.addDerived(acc, int32(f), val)
			}
		}
	} else {
		simd.Active().DotManyBias(s.rows, s.bias, s.ids, vals, acc)
	}
	s.assemble(acc, out)
}

// HashDenseMany implements Hasher: on the materialized path, one
// DotManyBiasBatch call of the active kernel tier per WalkTile vectors, each
// hyperplane loaded once for the tile; the lazy path loops HashDense. Every
// vector's length is checked before any is hashed.
func (s *SimHash) HashDenseMany(vals [][]float32, out []uint32) {
	if len(out) < len(vals)*s.l {
		panic("lsh: SimHash.HashDenseMany out slice too short")
	}
	for i, v := range vals {
		if len(v) != s.dim {
			panic(fmt.Sprintf("lsh: SimHash.HashDenseMany vector %d has %d values, hasher Dim is %d", i, len(v), s.dim))
		}
	}
	if s.planes == nil {
		hashEach(s, vals, out)
		return
	}
	ks := simd.Active()
	sc := s.scratch.Get().(*simhashScratch)
	defer s.scratch.Put(sc)
	for lo := 0; lo < len(vals); lo += simd.WalkTile {
		accs := sc.accs[:min(simd.WalkTile, len(vals)-lo)]
		ks.DotManyBiasBatch(s.rows, s.bias, s.ids, vals[lo:lo+len(accs)], accs)
		for j, acc := range accs {
			s.assemble(acc, out[(lo+j)*s.l:])
		}
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
