package bf16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloat32Exact(t *testing.T) {
	// Values exactly representable in bfloat16 must round-trip bit-exact.
	cases := []float32{0, 1, -1, 2, 0.5, -0.5, 1.5, 256, -1024, 0.0078125}
	for _, x := range cases {
		got := FromFloat32(x).Float32()
		if got != x {
			t.Errorf("FromFloat32(%g).Float32() = %g, want exact", x, got)
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between 1.0 and 1+2^-7; RNE keeps the even
	// mantissa (1.0).
	half := float32(1.0 + 1.0/256.0)
	if got := FromFloat32(half).Float32(); got != 1.0 {
		t.Errorf("halfway 1+2^-8 rounded to %g, want 1.0 (round to even)", got)
	}
	// 1 + 3*2^-8 is halfway between 1+2^-7 and 1+2^-6; RNE picks 1+2^-6
	// (even mantissa 0b10).
	half2 := float32(1.0 + 3.0/256.0)
	want := float32(1.0 + 2.0/128.0)
	if got := FromFloat32(half2).Float32(); got != want {
		t.Errorf("halfway 1+3*2^-8 rounded to %g, want %g", got, want)
	}
	// Anything past the halfway point rounds up.
	up := float32(1.0 + 1.0/256.0 + 1.0/1024.0)
	wantUp := float32(1.0 + 1.0/128.0)
	if got := FromFloat32(up).Float32(); got != wantUp {
		t.Errorf("above-half rounded to %g, want %g", got, wantUp)
	}
}

// isNaN reports whether b is a NaN.
func isNaN(b BF16) bool {
	return b&0x7F80 == 0x7F80 && b&0x007F != 0
}

// isInf reports whether b is an infinity of the given sign: +1 positive,
// -1 negative, 0 either.
func isInf(b BF16, sign int) bool {
	if b&0x7FFF != 0x7F80 {
		return false
	}
	neg := b&0x8000 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

func TestSpecialValues(t *testing.T) {
	if !isInf(FromFloat32(float32(math.Inf(1))), 1) {
		t.Error("+Inf did not convert to +Inf")
	}
	if !isInf(FromFloat32(float32(math.Inf(-1))), -1) {
		t.Error("-Inf did not convert to -Inf")
	}
	if !isNaN(FromFloat32(float32(math.NaN()))) {
		t.Error("NaN did not convert to NaN")
	}
	// Negative zero keeps its sign.
	nz := FromFloat32(float32(math.Copysign(0, -1)))
	if nz.Bits() != 0x8000 {
		t.Errorf("-0 bits = %#x, want 0x8000", nz.Bits())
	}
}

func TestNaNNeverBecomesInf(t *testing.T) {
	// A NaN with only low mantissa bits set would be corrupted to Inf by a
	// naive round-up; the implementation must quiet it instead.
	sneaky := math.Float32frombits(0x7F800001)
	b := FromFloat32(sneaky)
	if !isNaN(b) {
		t.Errorf("NaN with low payload converted to %#x (not NaN)", b.Bits())
	}
}

func TestRoundTripAllBF16Values(t *testing.T) {
	// Every finite BF16 value must be a fixed point of the f32->bf16->f32
	// round trip. Exhaustive over all 65536 patterns.
	for u := 0; u < 1<<16; u++ {
		b := FromBits(uint16(u))
		if isNaN(b) {
			continue
		}
		f := b.Float32()
		back := FromFloat32(f)
		if back != b {
			t.Fatalf("bits %#04x -> %g -> %#04x, not a fixed point", u, f, back.Bits())
		}
	}
}

func TestPropertyRelativeError(t *testing.T) {
	// For normal-range inputs the relative rounding error is at most 2^-8.
	f := func(x float32) bool {
		ax := math.Abs(float64(x))
		// The smallest normal and the largest finite bfloat16.
		if ax < float64(FromBits(0x0080).Float32()) || ax > float64(FromBits(0x7F7F).Float32()) {
			return true // subnormal/overflow range excluded from this bound
		}
		y := FromFloat32(x).Float32()
		rel := math.Abs(float64(y)-float64(x)) / ax
		return rel <= 1.0/256.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMonotone(t *testing.T) {
	// Rounding is monotone: x <= y implies bf16(x) <= bf16(y).
	f := func(x, y float32) bool {
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return FromFloat32(x).Float32() <= FromFloat32(y).Float32()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSliceHelpers(t *testing.T) {
	src := []float32{1, 2.5, -3.25, 1e20, -1e-20, 0}
	bs := make([]BF16, len(src))
	for i, x := range src {
		bs[i] = FromFloat32(x)
	}
	back := make([]float32, len(bs))
	Expand(back, bs)
	if len(back) != len(src) {
		t.Fatalf("length changed: %d -> %d", len(src), len(back))
	}
	for i := range src {
		want := FromFloat32(src[i]).Float32()
		if back[i] != want {
			t.Errorf("slice round trip [%d] = %g, want %g", i, back[i], want)
		}
	}

	// RoundSlice is idempotent.
	x := append([]float32(nil), src...)
	RoundSlice(x)
	once := append([]float32(nil), x...)
	RoundSlice(x)
	for i := range x {
		if x[i] != once[i] {
			t.Errorf("RoundSlice not idempotent at %d: %g vs %g", i, x[i], once[i])
		}
	}
}

func TestExpandLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Expand with mismatched lengths did not panic")
		}
	}()
	Expand(make([]float32, 1), make([]BF16, 2))
}

func TestEpsilon(t *testing.T) {
	// The next representable value after 1 is 1 + 2^-7: seven mantissa bits.
	one := FromFloat32(1)
	next := FromBits(one.Bits() + 1)
	if diff := next.Float32() - 1.0; diff != 1.0/128 {
		t.Errorf("next-after-1 gap = %g, want 2^-7", diff)
	}
}
