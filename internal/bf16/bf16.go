// Package bf16 implements the Brain Floating Point (bfloat16) format in
// software.
//
// BF16 keeps float32's 8-bit exponent and truncates the mantissa from 23 to
// 7 bits (Kalamkar et al. 2019). The paper's CPX target executes BF16
// natively via AVX512-BF16; this package is the software substitute used by
// the quantized training modes in §4.4 of the paper: it preserves the memory
// footprint (half of FP32) and the numerical behaviour (rounding) of the
// hardware format, so accuracy-impact experiments transfer directly.
//
// Conversion rounds to nearest even, as AVX512-BF16 VCVTNEPS2BF16 does.
package bf16

import "math"

// BF16 is a bfloat16 value stored in the upper 16 bits layout of a float32:
// 1 sign bit, 8 exponent bits, 7 mantissa bits.
type BF16 uint16

// FromFloat32 converts x to BF16 with round-to-nearest-even.
//
// NaN payloads are canonicalized to a quiet NaN so that a NaN never rounds
// into an infinity (the pure "add 0x7FFF+lsb" trick would corrupt NaNs whose
// low mantissa bits carry the payload).
func FromFloat32(x float32) BF16 {
	bits := math.Float32bits(x)
	if isNaN32(bits) {
		return BF16(bits>>16 | 0x0040) // quiet the NaN, keep sign+exponent
	}
	// Round to nearest even: add half of the dropped range, plus the LSB of
	// the kept mantissa to break ties toward even.
	lsb := (bits >> 16) & 1
	bits += 0x7FFF + lsb
	return BF16(bits >> 16)
}

// Float32 converts b back to float32. The conversion is exact: every BF16
// value is representable as a float32.
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// Bits returns the raw 16-bit representation.
func (b BF16) Bits() uint16 { return uint16(b) }

// FromBits builds a BF16 from raw bits.
func FromBits(u uint16) BF16 { return BF16(u) }

// IsNaN reports whether b is a NaN.
func (b BF16) IsNaN() bool {
	return b&0x7F80 == 0x7F80 && b&0x007F != 0
}

// IsInf reports whether b is an infinity of the given sign: +1 positive,
// -1 negative, 0 either.
func (b BF16) IsInf(sign int) bool {
	if b&0x7FFF != 0x7F80 {
		return false
	}
	neg := b&0x8000 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

func isNaN32(bits uint32) bool {
	return bits&0x7F800000 == 0x7F800000 && bits&0x007FFFFF != 0
}

// FromSlice converts a float32 slice into a freshly allocated BF16 slice.
func FromSlice(src []float32) []BF16 {
	dst := make([]BF16, len(src))
	Convert(dst, src)
	return dst
}

// Convert converts src into dst with round-to-nearest-even.
// It panics if the slices have different lengths.
func Convert(dst []BF16, src []float32) {
	if len(dst) != len(src) {
		panic("bf16: Convert length mismatch")
	}
	for i, x := range src {
		dst[i] = FromFloat32(x)
	}
}

// Expand converts src into dst. It panics on length mismatch.
func Expand(dst []float32, src []BF16) {
	if len(dst) != len(src) {
		panic("bf16: Expand length mismatch")
	}
	for i, b := range src {
		dst[i] = b.Float32()
	}
}

// RoundFloat32 rounds x through bfloat16 and back. It is the quantization
// applied by "BF16 activations" mode to values kept in float32 storage.
func RoundFloat32(x float32) float32 {
	return FromFloat32(x).Float32()
}

// RoundSlice quantizes every element of x in place through bfloat16.
func RoundSlice(x []float32) {
	for i := range x {
		x[i] = RoundFloat32(x[i])
	}
}
