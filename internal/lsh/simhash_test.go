package lsh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
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
	if s.Bits() != 9 || s.Tables() != 50 || s.dim != 1000 {
		t.Errorf("accessors wrong: %d %d %d", s.Bits(), s.Tables(), s.dim)
	}
}

func TestSimHashScaleInvariance(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 8, L: 25, Dim: 100, Seed: 5})
	v := make([]float32, 100)
	v[1], v[5], v[77] = 0.3, -2, 1.4
	scaled := make([]float32, 100)
	for i := range v {
		scaled[i] = v[i] * 7
	}
	h1 := make([]uint32, 25)
	h2 := make([]uint32, 25)
	s.HashDense(v, h1)
	s.HashDense(scaled, h2)
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
	v := make([]float32, 40)
	v[0], v[39] = 1, -1
	s.HashDense(v, out)
	for i, h := range out {
		if h >= 1<<5 {
			t.Errorf("table %d hash %d exceeds 5-bit space", i, h)
		}
	}
}

func TestSimHashZeroVector(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 4, L: 6, Dim: 10, Seed: 13})
	out := make([]uint32, 6)
	s.HashDense(make([]float32, 10), out)
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
	// The two paths give the same fingerprints: on small-integer inputs
	// every projection is exact in any summation order.
	lazy := mustSimHash(t, SimHashConfig{K: k, L: l, Dim: dim, Seed: 41})
	lazy.planes = nil
	rng := rand.New(rand.NewPCG(3, 4))
	got, want := make([]uint32, l), make([]uint32, l)
	for trial := 0; trial < 20; trial++ {
		v := make([]float32, dim)
		for f := range v {
			v[f] = float32(rng.IntN(7) - 3)
		}
		s.HashDense(v, want)
		lazy.HashDense(v, got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: derived path %v, matrix path %v", trial, got, want)
		}
	}
	// A hasher over the byte budget must still work and stay in range.
	big := mustSimHash(t, SimHashConfig{K: 9, L: 50, Dim: 253855, Seed: 43})
	if big.planes != nil {
		t.Fatal("huge hasher should not materialize its hyperplane matrix")
	}
	out := make([]uint32, 50)
	oneHot := make([]float32, 253855)
	oneHot[100000] = 1
	big.HashDense(oneHot, out)
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

func TestSimHashShortOutPanics(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 2, L: 5, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	s.HashDense(make([]float32, 10), make([]uint32, 4))
}

// dotFingerprints is the definition of a materialized SimHash fingerprint
// under kernel table ks: bit k of table t is whether the Dot of hyperplane
// t·K+k with v is positive, K bits per table, most significant first.
func dotFingerprints(s *SimHash, ks *simd.Kernels, v []float32, out []uint32) {
	for t := range s.l {
		var h uint32
		for k := range s.k {
			b := t*s.k + k
			h <<= 1
			if ks.Dot(s.planes[b*s.dim:(b+1)*s.dim], v) > 0 {
				h |= 1
			}
		}
		out[t] = h
	}
}

// simhashVectors returns n vectors of length dim cycling through the inputs
// a sign test is fragile on: all zero, all −0, small integers (projections
// of exactly zero are common), Gaussian, and Gaussian with ±Inf or NaN.
func simhashVectors(n, dim int, seed uint64) [][]float32 {
	rng := rand.New(rand.NewPCG(seed, 77))
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	vs := make([][]float32, n)
	for i := range vs {
		v := make([]float32, dim)
		for f := range v {
			switch i % 7 {
			case 1:
				v[f] = negZero
			case 2:
				v[f] = float32(rng.IntN(3) - 1)
			case 3, 4:
				v[f] = float32(rng.NormFloat64())
			case 5, 6:
				v[f] = float32(rng.NormFloat64())
				if rng.IntN(max(dim/2, 2)) == 0 {
					v[f] = []float32{inf, -inf, nan}[rng.IntN(3)]
				}
			}
		}
		vs[i] = v
	}
	return vs
}

// TestSimHashDenseManyMatchesPerPlaneDot: on every tier, HashDense and
// HashDenseMany give dotFingerprints bit for bit — the walk kernels are the
// tier's Dot plus a zero bias, which no sign test sees. Dims 1–40 cover the
// AVX2 Go tail at every remainder and AVX-512's masked tail; 199–201 the
// text8 shape and its neighbours. Batch sizes cover the empty batch, a lone
// vector, tiles either side of simd.WalkTile, a ragged last tile and a
// training stripe; out is longer than needed and its tail must stay as it
// was.
func TestSimHashDenseManyMatchesPerPlaneDot(t *testing.T) {
	const k, l, sentinel = 7, 20, 0xdeadbeef
	var dims []int
	for d := 1; d <= 40; d++ {
		dims = append(dims, d)
	}
	dims = append(dims, 199, 200, 201)
	counts := []int{0, 1, simd.WalkTile - 1, simd.WalkTile, simd.WalkTile + 1, 17, 128}
	forEachKernelMode(t, func(t *testing.T) {
		ks := simd.Active()
		for _, dim := range dims {
			s := mustSimHash(t, SimHashConfig{K: k, L: l, Dim: dim, Seed: uint64(dim)})
			vs := simhashVectors(128, dim, uint64(dim))
			want := make([]uint32, len(vs)*l)
			for i, v := range vs {
				dotFingerprints(s, ks, v, want[i*l:(i+1)*l])
			}
			one := make([]uint32, l)
			for i, v := range vs {
				s.HashDense(v, one)
				if !slices.Equal(one, want[i*l:(i+1)*l]) {
					t.Fatalf("dim %d vector %d: HashDense %v, per-plane Dot %v", dim, i, one, want[i*l:(i+1)*l])
				}
			}
			for _, c := range counts {
				got := make([]uint32, (c+1)*l)
				for i := range got {
					got[i] = sentinel
				}
				s.HashDenseMany(vs[:c], got)
				for i := range c {
					if !slices.Equal(got[i*l:(i+1)*l], want[i*l:(i+1)*l]) {
						t.Fatalf("dim %d batch %d vector %d: HashDenseMany %v, per-plane Dot %v",
							dim, c, i, got[i*l:(i+1)*l], want[i*l:(i+1)*l])
					}
				}
				for _, h := range got[c*l:] {
					if h != sentinel {
						t.Fatalf("dim %d batch %d: HashDenseMany wrote past the batch's fingerprints", dim, c)
					}
				}
			}
		}
	})
}

// TestSimHashDenseManyLazyPath: above PrecomputeLimit the batch is a loop
// over the lazily derived HashDense.
func TestSimHashDenseManyLazyPath(t *testing.T) {
	const l = 12
	s := mustSimHash(t, SimHashConfig{K: 5, L: l, Dim: 90, Seed: 8})
	s.planes = nil
	vs := simhashVectors(2*simd.WalkTile+3, 90, 8)
	got, one := make([]uint32, len(vs)*l), make([]uint32, l)
	s.HashDenseMany(vs, got)
	for i, v := range vs {
		s.HashDense(v, one)
		if !slices.Equal(got[i*l:(i+1)*l], one) {
			t.Fatalf("vector %d: HashDenseMany %v, HashDense %v", i, got[i*l:(i+1)*l], one)
		}
	}
}

// TestSimHashDenseManyLengthMismatchPanics: a vector of the wrong length
// anywhere in a batch panics by name before any vector is hashed, on both
// paths.
func TestSimHashDenseManyLengthMismatchPanics(t *testing.T) {
	const l = 5
	for _, lazy := range []bool{false, true} {
		s := mustSimHash(t, SimHashConfig{K: 2, L: l, Dim: 10, Seed: 1})
		if lazy {
			s.planes = nil
		}
		for _, bad := range []int{0, simd.WalkTile, 8} {
			for _, n := range []int{0, 9, 11} {
				vs := simhashVectors(9, 10, 3)
				vs[bad] = make([]float32, n)
				out := make([]uint32, len(vs)*l)
				func() {
					defer func() {
						msg, _ := recover().(string)
						if want := fmt.Sprintf("vector %d has %d values, hasher Dim is 10", bad, n); !strings.Contains(msg, want) {
							t.Errorf("lazy %v, %d values at %d: panic %q does not name the mismatch", lazy, n, bad, msg)
						}
					}()
					s.HashDenseMany(vs, out)
				}()
				if slices.ContainsFunc(out, func(h uint32) bool { return h != 0 }) {
					t.Errorf("lazy %v, %d values at %d: vectors were hashed before the panic", lazy, n, bad)
				}
			}
		}
	}
}

func TestSimHashDenseManyShortOutPanics(t *testing.T) {
	s := mustSimHash(t, SimHashConfig{K: 2, L: 5, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	s.HashDenseMany(simhashVectors(3, 10, 1), make([]uint32, 14))
}

func TestSimHashDenseManyDoesNotAllocate(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops the hasher's scratch at random")
	}
	const l = 20
	s := mustSimHash(t, SimHashConfig{K: 7, L: l, Dim: 200, Seed: 3})
	vs := simhashVectors(17, 200, 3)
	out := make([]uint32, len(vs)*l)
	if a := testing.AllocsPerRun(200, func() { s.HashDenseMany(vs, out) }); a != 0 {
		t.Errorf("HashDenseMany allocates %.0f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { s.HashDense(vs[3], out) }); a != 0 {
		t.Errorf("HashDense allocates %.0f objects per call, want 0", a)
	}
}
