package simd

import "math"

// Element-wise kernels of the quantized serving tier (internal/quant): the
// packing of an f32 row into symmetric int8 codes, and the dequantization of
// a block of integer accumulators into logits. Unlike the float kernels these
// have exactly one right answer each, and every tier returns it bit for bit:
// the two functions below are the definition, the Scalar and Vector tiers run
// them as they are, and the assembly tiers reproduce them with one rounding
// per step (see DESIGN.md "Quantized tier kernels").
//
// QuantizeRow8 packs w into dst[:len(w)] — scale = maxabs(w)/127 and
// dst[i] = clamp(round(w[i]/scale), ±127), round half away from zero in
// float64 — and returns the scale and the codes' sum. A row holding a NaN or
// an Inf is not packed: the call returns (0, 0, false) and leaves dst alone.
// dst must have at least len(w) elements.
//
// DequantRows8 turns the accumulators of contiguous rows into logits,
// out[k] = float32(scales[k]*sa) * float32(acc[k] - zp*rowSums[k]) + bias[k]
// in float32 with a rounding after each operation and int32 arithmetic that
// wraps. acc, scales, rowSums and bias must have at least len(out) elements.
// Unless maxes is nil it also sets maxes[j] to the largest of
// out[MaxGroup·j : MaxGroup·(j+1)] (the last group may be partial), so maxes
// must then hold at least ⌈len(out)/MaxGroup⌉ elements; a group holding a
// NaN has a NaN maximum, and a zero maximum may carry either sign. The
// assembly tiers take the maxima while the logits are still in registers.

// MaxGroup is how many consecutive logits each of DequantRows8's maxima
// covers.
const MaxGroup = 64

// checkQuantizeRow8 and checkDequantRows8 enforce the length contracts:
// re-slicing alone would let a short operand's spare capacity be used.
func checkQuantizeRow8(w []float32, dst []int8) {
	if len(dst) < len(w) {
		panic("simd: QuantizeRow8 dst shorter than w")
	}
}

func checkDequantRows8(acc []int32, scales []float32, rowSums []int32, bias []float32, out, maxes []float32) {
	n := len(out)
	if len(acc) < n || len(scales) < n || len(rowSums) < n || len(bias) < n {
		panic("simd: DequantRows8 operand shorter than out")
	}
	if maxes != nil && len(maxes) < (n+MaxGroup-1)/MaxGroup {
		panic("simd: DequantRows8 maxes shorter than out's groups")
	}
}

// quantizeRow8 is the definition of the QuantizeRow8 entries.
func quantizeRow8(w []float32, dst []int8) (scale float32, rowSum int32, finite bool) {
	checkQuantizeRow8(w, dst)
	dst = dst[:len(w)]
	var m float32
	for _, v := range w {
		if v < 0 {
			v = -v
		}
		if !(v <= math.MaxFloat32) {
			return 0, 0, false // NaN or Inf
		}
		if v > m {
			m = v
		}
	}
	if m == 0 {
		clear(dst)
		return 0, 0, true
	}
	scale = m / 127
	inv := float64(scale)
	for i, v := range w {
		qi := quantize8(v, inv)
		dst[i] = int8(qi)
		rowSum += qi
	}
	return scale, rowSum, true
}

// quantize8 is one element's code. When scale underflows to 0 the quotient is
// ±Inf or NaN, which converts to math.MinInt32 on amd64 and so packs to -127.
func quantize8(v float32, inv float64) int32 {
	qi := int32(math.Round(float64(v) / inv))
	if qi > 127 {
		qi = 127
	} else if qi < -127 {
		qi = -127
	}
	return qi
}

// dequantRows8 is the definition of the DequantRows8 entries. The explicit
// float32 conversions keep the compiler from fusing the multiply and the add;
// Go's max propagates a NaN.
func dequantRows8(acc []int32, scales []float32, rowSums []int32, bias []float32, sa float32, zp int32, out, maxes []float32) {
	checkDequantRows8(acc, scales, rowSums, bias, out, maxes)
	n := len(out)
	acc, scales, rowSums, bias = acc[:n], scales[:n], rowSums[:n], bias[:n]
	var m float32
	for k := range out {
		d := float32(scales[k] * sa)
		v := float32(acc[k] - zp*rowSums[k])
		o := float32(d*v) + bias[k]
		out[k] = o
		if k%MaxGroup == 0 {
			m = o
		}
		m = max(m, o)
		if maxes != nil && (k%MaxGroup == MaxGroup-1 || k == n-1) {
			maxes[k/MaxGroup] = m
		}
	}
}
