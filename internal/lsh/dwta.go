package lsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// DWTA is the Densified Winner-Take-All hash family (Chen & Shrivastava
// 2018), SLIDE's workhorse for sparse data.
//
// The input dimension is pseudo-randomly permuted into K·L bins of BinSize
// slots each. The hash of one bin is the slot index holding the maximum
// value; K consecutive bins concatenate into one table's bucket index
// (K·log2(BinSize) bits). Sparse inputs leave bins without any non-zero
// (common under extreme sparsity); those are "densified": they borrow the
// winner of a donor bin chosen by a deterministic universal-hash hop
// sequence, so near-identical vectors still collide.
//
// Following §4.3.3, the random index map is precomputed at construction.
// Positions are numbered p = bin·BinSize + slot, and that numbering (with
// the seed) fixes the fingerprints; the map itself is stored slot-major so
// the dense path is a single simd GatherArgMax call that resolves one bin
// per vector lane (see DESIGN.md "DWTA fingerprints").
type DWTA struct {
	k       int // hashes (bins) per table
	l       int // number of tables
	binSize int // slots per bin; power of two
	dim     int // input dimensionality
	slotBit int // log2(binSize)

	// idx maps positions to feature indices, slot-major: the feature behind
	// position p = bin*binSize + slot is idx[slot*k*l + bin]. Built from
	// ceil(positions/dim) independent permutations of [0,dim) ("rotations")
	// laid along p, so every position is backed by a real feature. Every
	// entry is < dim: HashDense gathers through it unchecked.
	idx []int32
	// featPos is the CSR inverse of the map: featPos[featStart[f]:featStart[f+1]]
	// lists the positions p feature f occupies. Sparse inputs walk only their
	// non-zeros through this map.
	featStart []int32
	featPos   []int32

	maxDensify int // bounded donor-hop attempts
	seed       uint64

	scratch sync.Pool // *dwtaScratch
}

type dwtaScratch struct {
	binMax    []float32 // sparse path: running max per bin
	binWinner []uint8   // winning slot per bin, emptyBin = none
}

// emptyBin marks a bin no non-zero reached (sparse path only). It is not a
// slot number because BinSize is at most maxBinSize.
const (
	emptyBin   = 0xFF
	maxBinSize = 128
)

// DWTAConfig parameterizes NewDWTA.
type DWTAConfig struct {
	// K is the number of WTA bins concatenated per table (paper: 6 for
	// Amazon-670K, 5 for WikiLSH-325K).
	K int
	// L is the number of hash tables (paper: 400 / 350).
	L int
	// BinSize is the number of slots per bin; must be a power of two.
	// 0 defaults to 8 (3 bits per bin, SLIDE's setting).
	BinSize int
	// Dim is the input dimensionality of hashed vectors.
	Dim int
	// Seed drives the permutation and the densification hops.
	Seed uint64
}

// NewDWTA builds a DWTA hasher.
func NewDWTA(cfg DWTAConfig) (*DWTA, error) {
	if cfg.BinSize == 0 {
		cfg.BinSize = 8
	}
	if cfg.K <= 0 || cfg.L <= 0 {
		return nil, fmt.Errorf("lsh: DWTA requires K>0 and L>0, got K=%d L=%d", cfg.K, cfg.L)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lsh: DWTA requires Dim>0, got %d", cfg.Dim)
	}
	if cfg.BinSize < 2 || cfg.BinSize > maxBinSize || cfg.BinSize&(cfg.BinSize-1) != 0 {
		return nil, fmt.Errorf("lsh: DWTA BinSize must be a power of two in [2,%d], got %d", maxBinSize, cfg.BinSize)
	}
	slotBit := bits.TrailingZeros(uint(cfg.BinSize))
	if cfg.K*slotBit > 30 {
		return nil, fmt.Errorf("lsh: DWTA bucket index needs %d bits (>30); lower K or BinSize", cfg.K*slotBit)
	}

	d := &DWTA{
		k:          cfg.K,
		l:          cfg.L,
		binSize:    cfg.BinSize,
		dim:        cfg.Dim,
		slotBit:    slotBit,
		maxDensify: 64,
		seed:       cfg.Seed,
	}
	nbins := cfg.K * cfg.L
	positions := nbins * cfg.BinSize
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5851F42D4C957F2D))

	// Fill positions, in p order, with rotations of fresh permutations of
	// [0, dim), then store the map slot-major and invert it into CSR form.
	perm := make([]int32, positions)
	for p := 0; p < positions; p += cfg.Dim {
		permutation := rng.Perm(cfg.Dim)
		for i := range perm[p:min(p+cfg.Dim, positions)] {
			perm[p+i] = int32(permutation[i])
		}
	}
	d.idx = make([]int32, positions)
	counts := make([]int32, cfg.Dim+1)
	for p, f := range perm {
		if f < 0 || int(f) >= cfg.Dim {
			// HashDense gathers through idx without bounds checks.
			panic(fmt.Sprintf("lsh: DWTA position %d maps to feature %d outside [0,%d)", p, f, cfg.Dim))
		}
		bin, slot := p>>slotBit, p&(cfg.BinSize-1)
		d.idx[slot*nbins+bin] = f
		counts[f+1]++
	}
	for i := 1; i <= cfg.Dim; i++ {
		counts[i] += counts[i-1]
	}
	d.featStart = counts
	d.featPos = make([]int32, positions)
	fill := make([]int32, cfg.Dim)
	for pos, f := range perm {
		d.featPos[d.featStart[f]+fill[f]] = int32(pos)
		fill[f]++
	}

	d.scratch.New = func() any {
		return &dwtaScratch{
			binMax:    make([]float32, nbins),
			binWinner: make([]uint8, nbins),
		}
	}
	return d, nil
}

// Tables implements Hasher.
func (d *DWTA) Tables() int { return d.l }

// Bits implements Hasher.
func (d *DWTA) Bits() int { return d.k * d.slotBit }

// Dim returns the configured input dimensionality.
func (d *DWTA) Dim() int { return d.dim }

// Hash implements Hasher for sparse inputs: only the non-zero features walk
// the inverse map, so cost is O(nnz · positions/dim + K·L).
func (d *DWTA) Hash(v sparse.Vector, out []uint32) {
	if len(out) < d.l {
		panic("lsh: DWTA.Hash out slice too short")
	}
	s := d.scratch.Get().(*dwtaScratch)
	defer d.scratch.Put(s)

	nbins := d.k * d.l
	for i := 0; i < nbins; i++ {
		s.binWinner[i] = emptyBin
		s.binMax[i] = float32(math.Inf(-1))
	}
	for n, f := range v.Indices {
		if int(f) >= d.dim || f < 0 {
			panic(fmt.Sprintf("lsh: feature index %d out of range [0,%d)", f, d.dim))
		}
		val := v.Values[n]
		for _, pos := range d.featPos[d.featStart[f]:d.featStart[f+1]] {
			bin := int(pos) >> d.slotBit
			if val > s.binMax[bin] {
				s.binMax[bin] = val
				s.binWinner[bin] = uint8(int(pos) & (d.binSize - 1))
			}
		}
	}
	d.assemble(s, out)
}

// HashDense implements Hasher for dense vectors (neuron weights, dense
// activations): one GatherArgMax call of the active kernel tier resolves
// every bin's winner (§4.3.3's vectorized max, one bin per lane), then
// assemble packs them. len(vals) must equal Dim — the gathers are unchecked
// loads. Every bin has a winner, so nothing is densified: a bin whose slots
// are all equal (all zero after ReLU, or all -Inf) resolves to slot 0, and a
// NaN wins only from slot 0, as under Go's >.
func (d *DWTA) HashDense(vals []float32, out []uint32) {
	if len(out) < d.l {
		panic("lsh: DWTA.HashDense out slice too short")
	}
	if len(vals) != d.dim {
		panic(fmt.Sprintf("lsh: DWTA.HashDense input has %d values, hasher Dim is %d", len(vals), d.dim))
	}
	s := d.scratch.Get().(*dwtaScratch)
	defer d.scratch.Put(s)
	simd.Active().GatherArgMax(vals, d.idx, d.binSize, s.binWinner)
	d.assemble(s, out)
}

// assemble concatenates per-bin winners into per-table bucket indices,
// densifying empty bins.
func (d *DWTA) assemble(s *dwtaScratch, out []uint32) {
	for t := 0; t < d.l; t++ {
		var h uint32
		base := t * d.k
		for k := 0; k < d.k; k++ {
			bin := base + k
			w := s.binWinner[bin]
			if w == emptyBin {
				w = d.densify(s, bin)
			}
			h = h<<d.slotBit | uint32(w)
		}
		out[t] = h
	}
}

// densify borrows a winner for an empty bin via a deterministic universal-
// hash hop sequence over all bins. Returns 0 if every attempt lands empty
// (e.g. the all-zero vector).
func (d *DWTA) densify(s *dwtaScratch, bin int) uint8 {
	nbins := d.k * d.l
	for a := 1; a <= d.maxDensify; a++ {
		donor := int(splitmix64(d.seed^(uint64(bin)<<20|uint64(a))) % uint64(nbins))
		if w := s.binWinner[donor]; w != emptyBin {
			return w
		}
	}
	return 0
}
