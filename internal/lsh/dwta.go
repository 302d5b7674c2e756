package lsh

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"

	"github.com/slide-cpu/slide/internal/simd"
)

// DWTA is the Densified Winner-Take-All hash family (Chen & Shrivastava
// 2018), SLIDE's workhorse for sparse data.
//
// The input dimension is pseudo-randomly permuted into K·L bins of BinSize
// slots each. The hash of one bin is the slot index holding the maximum
// value; K consecutive bins concatenate into one table's bucket index
// (K·log2(BinSize) bits). The library hashes only dense vectors (activations
// and neuron weight rows), where every bin has a winner, so the family's
// densification step — borrowing a donor bin's winner for a bin no non-zero
// reached — never runs and is not implemented.
//
// Following §4.3.3, the random index map is precomputed at construction.
// Positions are numbered p = bin·BinSize + slot, and that numbering (with
// the seed) fixes the fingerprints; the map itself is stored slot-major so
// hashing is a single simd GatherArgMax call that resolves one bin per
// vector lane (see DESIGN.md "DWTA fingerprints").
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

	scratch sync.Pool // *[]uint8: the winning slot per bin
}

// maxBinSize caps BinSize; see DESIGN.md "DWTA fingerprints" for why it
// stays at 128.
const maxBinSize = 128

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
	// Seed drives the permutation.
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
		k:       cfg.K,
		l:       cfg.L,
		binSize: cfg.BinSize,
		dim:     cfg.Dim,
		slotBit: slotBit,
	}
	nbins := cfg.K * cfg.L
	positions := nbins * cfg.BinSize
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5851F42D4C957F2D))

	// Fill positions, in p order, with rotations of fresh permutations of
	// [0, dim), and store the map slot-major.
	d.idx = make([]int32, positions)
	for p0 := 0; p0 < positions; p0 += cfg.Dim {
		permutation := rng.Perm(cfg.Dim)
		for i, f := range permutation[:min(cfg.Dim, positions-p0)] {
			p := p0 + i
			if f < 0 || f >= cfg.Dim {
				// HashDense gathers through idx without bounds checks.
				panic(fmt.Sprintf("lsh: DWTA position %d maps to feature %d outside [0,%d)", p, f, cfg.Dim))
			}
			d.idx[(p&(cfg.BinSize-1))*nbins+p>>slotBit] = int32(f)
		}
	}

	d.scratch.New = func() any {
		win := make([]uint8, nbins)
		return &win
	}
	return d, nil
}

// Tables implements Hasher.
func (d *DWTA) Tables() int { return d.l }

// Bits implements Hasher.
func (d *DWTA) Bits() int { return d.k * d.slotBit }

// HashDenseMany implements Hasher as a loop over HashDense.
func (d *DWTA) HashDenseMany(vals [][]float32, out []uint32) { hashEach(d, vals, out) }

// HashDense implements Hasher: one GatherArgMax call of the active kernel
// tier resolves every bin's winner (§4.3.3's vectorized max, one bin per
// lane), then the winners are packed K per table. len(vals) must equal Dim —
// the gathers are unchecked loads. Every bin has a winner, so nothing is
// densified: a bin whose slots are all equal (all zero after ReLU, or all
// -Inf) resolves to slot 0, and a NaN wins only from slot 0, as under Go's >.
func (d *DWTA) HashDense(vals []float32, out []uint32) {
	if len(out) < d.l {
		panic("lsh: DWTA.HashDense out slice too short")
	}
	if len(vals) != d.dim {
		panic(fmt.Sprintf("lsh: DWTA.HashDense input has %d values, hasher Dim is %d", len(vals), d.dim))
	}
	win := d.scratch.Get().(*[]uint8)
	defer d.scratch.Put(win)
	simd.Active().GatherArgMax(vals, d.idx, d.binSize, *win)
	for t := range out[:d.l] {
		var h uint32
		for _, w := range (*win)[t*d.k : (t+1)*d.k] {
			h = h<<d.slotBit | uint32(w)
		}
		out[t] = h
	}
}
