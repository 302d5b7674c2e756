package lsh

import (
	"fmt"
	"math/rand/v2"
	"sync"
)

// DOPH is Densified One-Permutation (min-)Hashing for binary data — the
// hash family the SLIDE codebase uses for one-hot / set-valued inputs,
// where only the support of the vector matters. One fixed permutation of
// the feature universe is cut into K·L bins; each bin's hash is (a few bits
// of) the minimum permuted rank present in it, and a bin holding no
// non-zero borrows a donor bin's minimum (densification). Two sets collide
// per bin with probability equal to their Jaccard similarity, at the cost
// of a single permutation instead of K·L independent minwise hashes.
type DOPH struct {
	k, l       int
	dim        int
	bitsPerBin int

	binOf []int32 // feature -> bin
	rank  []int32 // feature -> permuted rank (minimized within a bin)

	maxDensify int
	seed       uint64

	scratch sync.Pool // *dophScratch
}

type dophScratch struct {
	binMin []int32 // minimum rank seen per bin; -1 = empty
}

// DOPHConfig parameterizes NewDOPH.
type DOPHConfig struct {
	// K is the number of minhash bins concatenated per table.
	K int
	// L is the number of tables.
	L int
	// BitsPerBin is how many fingerprint bits each bin contributes
	// (default 3, giving 2^(3K) buckets like DWTA with bin size 8).
	BitsPerBin int
	// Dim is the feature-universe size.
	Dim int
	// Seed drives the permutation and densification.
	Seed uint64
}

// NewDOPH builds a DOPH hasher.
func NewDOPH(cfg DOPHConfig) (*DOPH, error) {
	if cfg.BitsPerBin == 0 {
		cfg.BitsPerBin = 3
	}
	if cfg.K <= 0 || cfg.L <= 0 {
		return nil, fmt.Errorf("lsh: DOPH requires K>0 and L>0, got K=%d L=%d", cfg.K, cfg.L)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lsh: DOPH requires Dim>0, got %d", cfg.Dim)
	}
	if cfg.BitsPerBin < 1 || cfg.K*cfg.BitsPerBin > 30 {
		return nil, fmt.Errorf("lsh: DOPH bucket index needs %d bits (want 1..30)", cfg.K*cfg.BitsPerBin)
	}
	nbins := cfg.K * cfg.L
	d := &DOPH{
		k: cfg.K, l: cfg.L, dim: cfg.Dim, bitsPerBin: cfg.BitsPerBin,
		maxDensify: 64, seed: cfg.Seed,
		binOf: make([]int32, cfg.Dim),
		rank:  make([]int32, cfg.Dim),
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xD09B))
	perm := rng.Perm(cfg.Dim)
	for pos, f := range perm {
		d.rank[f] = int32(pos)
		d.binOf[f] = int32(int64(pos) * int64(nbins) / int64(cfg.Dim))
	}
	d.scratch.New = func() any {
		return &dophScratch{binMin: make([]int32, nbins)}
	}
	return d, nil
}

// Tables implements Hasher.
func (d *DOPH) Tables() int { return d.l }

// Bits implements Hasher.
func (d *DOPH) Bits() int { return d.k * d.bitsPerBin }

// Dim returns the configured feature-universe size.
func (d *DOPH) Dim() int { return d.dim }

// HashDenseMany implements Hasher as a loop over HashDense.
func (d *DOPH) HashDenseMany(vals [][]float32, out []uint32) { hashEach(d, vals, out) }

// HashDense implements Hasher: every non-zero coordinate counts as present.
func (d *DOPH) HashDense(vals []float32, out []uint32) {
	if len(out) < d.l {
		panic("lsh: DOPH.HashDense out slice too short")
	}
	s := d.scratch.Get().(*dophScratch)
	defer d.scratch.Put(s)
	for i := range s.binMin {
		s.binMin[i] = -1
	}
	n := min(len(vals), d.dim)
	for f := 0; f < n; f++ {
		if vals[f] == 0 {
			continue
		}
		bin := d.binOf[f]
		if r := d.rank[f]; s.binMin[bin] < 0 || r < s.binMin[bin] {
			s.binMin[bin] = r
		}
	}
	d.assemble(s, out)
}

func (d *DOPH) assemble(s *dophScratch, out []uint32) {
	mask := uint32(1)<<d.bitsPerBin - 1
	for t := 0; t < d.l; t++ {
		var h uint32
		base := t * d.k
		for k := 0; k < d.k; k++ {
			bin := base + k
			m := s.binMin[bin]
			if m < 0 {
				m = d.densify(s, bin)
			}
			// Fingerprint bits come from a mix of the min rank, so nearby
			// ranks do not alias trivially.
			bits := uint32(splitmix64(d.seed^uint64(uint32(m))*0x9E3779B97F4A7C15)) & mask
			h = h<<d.bitsPerBin | bits
		}
		out[t] = h
	}
}

// densify borrows the min of a donor bin via a deterministic hop sequence;
// returns 0 when every probe lands empty (the empty set).
func (d *DOPH) densify(s *dophScratch, bin int) int32 {
	nbins := d.k * d.l
	for a := 1; a <= d.maxDensify; a++ {
		donor := int(splitmix64(d.seed^(uint64(bin)<<20|uint64(a))) % uint64(nbins))
		if m := s.binMin[donor]; m >= 0 {
			return m
		}
	}
	return 0
}
