package lsh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

func mustSimHash(t *testing.T, cfg SimHashConfig) *SimHash {
	t.Helper()
	s, err := NewSimHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimHashConfigValidation(t *testing.T) {
	cases := []SimHashConfig{
		{K: 0, L: 5, Dim: 10},
		{K: 3, L: 0, Dim: 10},
		{K: 3, L: 5, Dim: 0},
		{K: 31, L: 5, Dim: 10},
	}
	for i, cfg := range cases {
		if _, err := NewSimHash(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
	s := mustSimHash(t, SimHashConfig{K: 9, L: 50, Dim: 1000})
	if s.Bits() != 9 || s.Tables() != 50 || s.Dim() != 1000 {
		t.Errorf("accessors wrong: %d %d %d", s.Bits(), s.Tables(), s.Dim())
	}
}

func TestSimHashSparseDenseConsistency(t *testing.T) {
	dim := 64
	s := mustSimHash(t, SimHashConfig{K: 6, L: 20, Dim: dim, Seed: 3})
	rng := rand.New(rand.NewPCG(1, 2))

	// Sparse vector with a handful of non-zeros.
	idx := []int32{2, 9, 33, 60}
	val := make([]float32, len(idx))
	for i := range val {
		val[i] = float32(rng.NormFloat64())
	}
	v := sparse.Vector{Indices: idx, Values: val}

	hs := make([]uint32, 20)
	hd := make([]uint32, 20)
	s.Hash(v, hs)
	s.HashDense(v.Dense(dim), hd)
	for i := range hs {
		if hs[i] != hd[i] {
			t.Errorf("table %d: sparse %d != dense %d", i, hs[i], hd[i])
		}
	}
}

func TestSimHashScaleInvariance(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 8, L: 25, Dim: 100, Seed: 5})
	v := sparse.Vector{Indices: []int32{1, 5, 77}, Values: []float32{0.3, -2, 1.4}}
	scaled := sparse.Vector{Indices: v.Indices, Values: []float32{0.3 * 7, -2 * 7, 1.4 * 7}}
	h1 := make([]uint32, 25)
	h2 := make([]uint32, 25)
	s.Hash(v, h1)
	s.Hash(scaled, h2)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("table %d: positive scaling changed hash %d -> %d", i, h1[i], h2[i])
		}
	}
}

func TestSimHashLocalityTracksCosine(t *testing.T) {
	dim := 256
	s := mustSimHash(t, SimHashConfig{K: 1, L: 2000, Dim: dim, Seed: 9})
	rng := rand.New(rand.NewPCG(7, 8))

	a := make([]float32, dim)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	// b = cos(theta)*a + sin(theta)*orthogonal-ish noise
	theta := math.Pi / 4
	b := make([]float32, dim)
	for i := range b {
		b[i] = float32(math.Cos(theta))*a[i] + float32(math.Sin(theta))*float32(rng.NormFloat64())
	}

	ha := make([]uint32, 2000)
	hb := make([]uint32, 2000)
	s.HashDense(a, ha)
	s.HashDense(b, hb)
	agree := 0
	for i := range ha {
		if ha[i] == hb[i] {
			agree++
		}
	}
	// SRP theory: P[bit match] = 1 - theta/pi. For theta≈pi/4 that is 0.75
	// (the noise vector is only approximately orthogonal, allow slack).
	frac := float64(agree) / 2000
	if frac < 0.60 || frac > 0.90 {
		t.Errorf("bit agreement %.3f outside [0.60, 0.90] for 45-degree vectors", frac)
	}
}

func TestSimHashBucketRange(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 5, L: 10, Dim: 40, Seed: 11})
	out := make([]uint32, 10)
	s.Hash(sparse.Vector{Indices: []int32{0, 39}, Values: []float32{1, -1}}, out)
	for i, h := range out {
		if h >= 1<<5 {
			t.Errorf("table %d hash %d exceeds 5-bit space", i, h)
		}
	}
}

func TestSimHashZeroVector(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 4, L: 6, Dim: 10, Seed: 13})
	out := make([]uint32, 6)
	s.Hash(sparse.Vector{}, out) // must not panic
	for _, h := range out {
		if h != 0 { // all projections are 0 => all sign bits 0
			t.Errorf("zero vector hashed to non-zero bucket %d", h)
		}
	}
}

func TestSimHashMatrixMatchesDerive(t *testing.T) {
	// Every entry of the materialized hyperplane matrix is the lazily
	// derived entry of the same (bit, feature) pair.
	const k, l, dim = 6, 20, 300
	s := mustSimHash(t, SimHashConfig{K: k, L: l, Dim: dim, Seed: 41})
	if len(s.planes) != k*l*dim {
		t.Fatalf("small hasher materialized %d entries, want %d", len(s.planes), k*l*dim)
	}
	for b := 0; b < k*l; b++ {
		for f := 0; f < dim; f++ {
			if got, want := s.planes[b*dim+f], s.derive(b, int32(f)); got != want {
				t.Fatalf("matrix entry (bit %d, feature %d) = %v, derive gives %v", b, f, got, want)
			}
		}
	}
	// A hasher over the byte budget must still work and stay in range.
	big := mustSimHash(t, SimHashConfig{K: 9, L: 50, Dim: 253855, Seed: 43})
	if big.planes != nil {
		t.Fatal("huge hasher should not materialize its hyperplane matrix")
	}
	out := make([]uint32, 50)
	big.Hash(sparse.Vector{Indices: []int32{100000}, Values: []float32{1}}, out)
	for _, h := range out {
		if h >= 1<<9 {
			t.Fatalf("hash %d out of range", h)
		}
	}
}

// TestSimHashFingerprintOracle checks fingerprints against float64
// projections: the kernel tiers reduce in different orders, so a bit may
// differ from the exact sign only where the projection is within the dot
// kernels' reduction tolerance of zero (DESIGN.md: 1e-5 × Σ|aᵢbᵢ|, and
// |bᵢ| = 1 here). Runs under whichever tier SLIDE_KERNEL_MODE selects.
func TestSimHashFingerprintOracle(t *testing.T) {
	const k, l, dim = 7, 20, 200
	s := mustSimHash(t, SimHashConfig{K: k, L: l, Dim: dim, Seed: 17})
	rng := rand.New(rand.NewPCG(5, 6))

	inputs := map[string][]float32{"all-zero": make([]float32, dim)}
	for i := 0; i < 8; i++ {
		v := make([]float32, dim)
		for f := range v {
			v[f] = float32(rng.NormFloat64())
		}
		inputs[fmt.Sprintf("dense-%d", i)] = v
	}
	// A one-hot input through a linear hidden layer: the activation is one
	// weight column plus the bias, small and centred on zero.
	bias := make([]float32, dim)
	for f := range bias {
		bias[f] = float32(rng.NormFloat64()) * 0.01
	}
	for i := 0; i < 8; i++ {
		v := make([]float32, dim)
		for f := range v {
			v[f] = float32(rng.NormFloat64())*0.07 + bias[f]
		}
		inputs[fmt.Sprintf("one-hot-linear-%d", i)] = v
	}

	got := make([]uint32, l)
	for name, v := range inputs {
		s.HashDense(v, got)
		var l1 float64
		for _, x := range v {
			l1 += math.Abs(float64(x))
		}
		tol := 1e-5 * l1
		for b := 0; b < k*l; b++ {
			var proj float64
			for f, x := range v {
				proj += float64(x) * float64(s.derive(b, int32(f)))
			}
			bit := got[b/k]>>(k-1-b%k)&1 == 1
			if bit != (proj > 0) && math.Abs(proj) > tol {
				t.Errorf("%s: bit %d is %v but the projection is %g (tolerance %g)", name, b, bit, proj, tol)
			}
		}
	}
	s.HashDense(inputs["all-zero"], got)
	for tb, h := range got {
		if h != 0 {
			t.Errorf("all-zero input: table %d hashed to %d, want 0", tb, h)
		}
	}
}

func TestSimHashDenseLengthMismatchPanics(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 2, L: 5, Dim: 10, Seed: 1})
	for _, n := range []int{9, 11} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "hasher Dim is 10") {
					t.Errorf("HashDense with %d values: panic %q does not name the mismatch", n, msg)
				}
			}()
			s.HashDense(make([]float32, n), make([]uint32, 5))
		}()
	}
}

func TestSimHashOutOfRangePanics(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 2, L: 2, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range feature did not panic")
		}
	}()
	s.Hash(sparse.Vector{Indices: []int32{-1}, Values: []float32{1}}, make([]uint32, 2))
}

func TestSimHashShortOutPanics(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 2, L: 5, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	s.HashDense(make([]float32, 10), make([]uint32, 4))
}
