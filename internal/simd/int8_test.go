package simd

import (
	"math/rand"
	"testing"
)

// refDotU8S8 is the plain-loop ground truth the tiers must match EXACTLY —
// integer accumulation has a single correct answer, unlike the float kernels'
// tolerance-based equivalence.
func refDotU8S8(a []uint8, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// quantInputs builds operands over the full contract range: activations in
// [0,127], weights in [-127,127].
func quantInputs(rng *rand.Rand, n int) ([]uint8, []int8) {
	a := make([]uint8, n)
	b := make([]int8, n)
	for i := range a {
		a[i] = uint8(rng.Intn(128))
		b[i] = int8(rng.Intn(255) - 127)
	}
	return a, b
}

// TestQuantDotU8S8Tiers checks every kernel tier against the reference at
// boundary lengths around the 16-byte AVX2 and 64/128-byte VNNI block sizes,
// plus unaligned sub-slices (the packed rows in quant.RowQ are offsets into
// one contiguous backing array, so kernels see arbitrary base alignment).
func TestQuantDotU8S8Tiers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 2, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
		127, 128, 129, 255, 256, 1000, 4096}
	for _, mode := range []Mode{Scalar, Vector, AVX2, AVX512} {
		k := ForMode(mode)
		t.Run(mode.String(), func(t *testing.T) {
			for _, n := range lengths {
				for off := 0; off < 3; off++ {
					full, fullB := quantInputs(rng, n+off)
					a, b := full[off:], fullB[off:]
					want := refDotU8S8(a, b)
					if got := k.DotU8S8(a, b); got != want {
						t.Fatalf("n=%d off=%d: DotU8S8 = %d, want %d (exact)",
							n, off, got, want)
					}
				}
			}
		})
	}
}

// TestQuantDotExtremes drives the worst-case magnitudes (all 127 x ±127) so
// any saturating instruction on the path would be caught: 4096*127*127 is
// well past the i16 range a saturating pairwise add would clip to.
func TestQuantDotExtremes(t *testing.T) {
	for _, n := range []int{16, 64, 128, 4096} {
		a := make([]uint8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = 127
			if i%2 == 0 {
				b[i] = 127
			} else {
				b[i] = -127
			}
		}
		want := refDotU8S8(a, b)
		for _, mode := range []Mode{Scalar, Vector, AVX2, AVX512} {
			if got := ForMode(mode).DotU8S8(a, b); got != want {
				t.Errorf("mode=%v n=%d: DotU8S8 = %d, want %d", mode, n, got, want)
			}
		}
		// All-positive: maximal accumulator growth.
		for i := range b {
			b[i] = 127
		}
		want = int32(n) * 127 * 127
		for _, mode := range []Mode{Scalar, Vector, AVX2, AVX512} {
			if got := ForMode(mode).DotU8S8(a, b); got != want {
				t.Errorf("mode=%v n=%d all-pos: DotU8S8 = %d, want %d", mode, n, got, want)
			}
		}
	}
}

// TestQuantDotLengthMismatchPanics: weights shorter than the activations
// panic on every tier (96 against 64 overruns inside the vector body).
func TestQuantDotLengthMismatchPanics(t *testing.T) {
	for _, m := range AvailableModes() {
		expectPanic(t, m.String()+" DotU8S8", func() { ForMode(m).DotU8S8(make([]uint8, 96), make([]int8, 64)) })
	}
}

func BenchmarkDotU8S8(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(7))
	a, w := quantInputs(rng, n)
	for _, mode := range []Mode{Scalar, Vector, AVX2, AVX512} {
		k := ForMode(mode)
		b.Run(k.Mode.String(), func(b *testing.B) {
			b.SetBytes(2 * n)
			var s int32
			for i := 0; i < b.N; i++ {
				s += k.DotU8S8(a, w)
			}
			sink32i = s
		})
	}
}

var sink32i int32
