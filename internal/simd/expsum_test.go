package simd

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// The ExpSum oracle: on every tier, each out[i] and the returned sum carry
// the bits of the loop below, with any NaN equal to any NaN (which payload
// survives an add of two NaNs depends on operand order).

// expSumRef is the definition of ExpSum, written out here so the oracle does
// not lean on the package's own copy.
func expSumRef(x []float32, m float32, out []float32, z float64) float64 {
	for i, v := range x {
		e := math.Exp(float64(v - m))
		out[i] = float32(e)
		z += e
	}
	return z
}

func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkExpSum runs every tier's ExpSum on x at the given element offset into
// its backing array, with out at another offset, and compares every output,
// the sum and three sentinels past len(x), which no tier may write.
func checkExpSum(t *testing.T, x []float32, m float32, z float64, off int) {
	t.Helper()
	const sentinel = -7.25
	x = append(make([]float32, off, off+len(x)), x...)[off:]
	want := make([]float32, len(x)+3)
	for i := range want {
		want[i] = sentinel
	}
	wz := expSumRef(x, m, want, z)
	for _, mode := range AvailableModes() {
		buf := make([]float32, (off+3)%8+len(want))
		out := buf[(off+3)%8:]
		for i := range out {
			out[i] = sentinel
		}
		got := ForMode(mode).ExpSum(x, m, out, z)
		if !sameF64(got, wz) {
			t.Fatalf("%v n=%d off=%d m=%g z=%g: sum %g (%#x), definition %g (%#x)",
				mode, len(x), off, m, z, got, math.Float64bits(got), wz, math.Float64bits(wz))
		}
		for i := range out {
			if !sameF32(out[i], want[i]) {
				t.Fatalf("%v n=%d off=%d m=%g: out[%d] = %g (%#x) for x = %g, definition %g (%#x)",
					mode, len(x), off, m, i, out[i], math.Float32bits(out[i]), x[min(i, len(x)-1)], want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// sliceMax is the largest of x, or 0 for an empty slice.
func sliceMax(x []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	return Max(x)
}

// expSpecials are the inputs archExp treats apart: NaN, ±Inf, ±0, float32
// subnormals, the denormal and underflow band of the result (x below about
// -708), and the overflow edge at 709.78 (k rounds to 1024 on both sides of
// it), with the largest float32 and neighbours of each band's ends.
var expSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00001), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff), math.SmallestNonzeroFloat32,
	-708, -708.39, -708.4, -708.5, -709, -709.1, -710, -720, -740, -744.4, -745, -745.1, -746, -1000, -1e30, -math.MaxFloat32,
	709, 709.7, 709.78, math.Nextafter32(709.78, 0), math.Nextafter32(709.78, 1000), 709.79, 710, 1000, math.MaxFloat32,
	88.72, 88.73, -87.3, -103.2, -103.3, -104, // float32 overflow and underflow of the stored exps
	1, -1, 0.5, -0.5, 1e-20, -1e-20, 1e-40, 3.4657359, -3.4657359, // k = ±5 boundaries of the rounding
}

func TestExpSumMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	zs := []float64{0, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	// Every length through several blocks of either assembly tier, so every
	// remainder; ordinary logits with m their max, as the label head calls it.
	for n := 0; n <= 70; n++ {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 4)
		}
		for _, z := range zs {
			checkExpSum(t, x, sliceMax(x), z, n%5)
		}
		checkExpSum(t, x, 0, 0, 0)
		checkExpSum(t, x, -3, 2, 1)
	}
	// Each special value alone and at every lane of a block, in a slice of
	// ordinary values: the block holding it leaves the assembly, the blocks
	// after it go back in.
	for _, s := range expSpecials {
		checkExpSum(t, []float32{s}, 0, 0, 0)
		for _, n := range []int{8, 13, 24, 37} {
			for at := range n {
				x := make([]float32, n)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				x[at] = s
				checkExpSum(t, x, 0, 1, at%3)
				checkExpSum(t, x, sliceMax(x), 0, 0)
			}
		}
	}
	// Whole blocks in archExp's denormal band (k = -1023 and below) and at
	// the edges of its fast path, with nothing else in the sum: the exps
	// summed are subnormal, so a lane that left the fast path too late shows
	// in z even though every stored float32 is 0.
	for _, lo := range []float32{-708, -708.7, -709.4, -744.9} {
		x := make([]float32, 48)
		for i := range x {
			x[i] = lo - float32(i)*0.03
		}
		checkExpSum(t, x, 0, 0, 0)
		checkExpSum(t, x, 0.5, 0, 1)
	}
	for _, lo := range []float32{708.6, 709.2, 709.7} {
		x := make([]float32, 48)
		for i := range x {
			x[i] = lo + float32(i)*0.03
		}
		checkExpSum(t, x, 0, 0, 0)
	}
	// The specials as m too, and all of them side by side.
	for _, m := range expSpecials {
		checkExpSum(t, expSpecials, m, 0.25, 2)
	}
	// Every 4096th float32 bit pattern: each exponent and sign, NaNs,
	// infinities and subnormals, at m = 0 and at m = 1.5.
	const stride = 4096
	sweep := make([]float32, 0, 1<<32/stride)
	for b := uint64(0); b < 1<<32; b += stride {
		sweep = append(sweep, math.Float32frombits(uint32(b)+uint32(b>>20)))
	}
	for lo := 0; lo < len(sweep); lo += 4099 {
		x := sweep[lo:min(lo+4099, len(sweep))]
		checkExpSum(t, x, 0, 0, 0)
		checkExpSum(t, x, 1.5, 0, 3)
	}
}

// FuzzExpSum: on every tier, any float32 bit patterns as x and m, any
// float64 as the carried sum, at any start within a register, give the
// definition's outputs and sum.
func FuzzExpSum(f *testing.F) {
	rng := rand.New(rand.NewPCG(36, 2))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 16, 17, 33, 70, 598} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 3)
		}
		f.Add(f32Bytes(x...), math.Float32bits(sliceMax(x)), math.Float64bits(0), uint8(n))
	}
	f.Add(f32Bytes(expSpecials...), uint32(0), math.Float64bits(1), uint8(0))
	f.Add(f32Bytes(expSpecials...), math.Float32bits(709.78), math.Float64bits(math.NaN()), uint8(5))
	f.Add(f32Bytes(1, 2, 3, 4, -800, 6, 7, 8, 9, 10, 11, 12), math.Float32bits(12), math.Float64bits(math.Inf(1)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, mBits uint32, zBits uint64, off uint8) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkExpSum(t, x, math.Float32frombits(mBits), math.Float64frombits(zBits), int(off%16))
	})
}
