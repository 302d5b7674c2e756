//go:build amd64

package simd

import "math"

// Go side of the quantized tier's element-wise kernels (quant8_amd64.s). The
// AVX-512 routines take any n and mask their own tail; the AVX2 ones take a
// multiple of 8 and leave the rest to the definition's per-element code.
// QuantizeRow8 is two routines, because the scale must be known before the
// first code is: the max-abs pass returns max(bits(w[i]) &^ signBit), which
// orders like |w[i]| and exceeds the largest finite float32's bits exactly
// when some w[i] is a NaN or an Inf, and the packing pass divides by the
// scale the wrapper derived from it.

//go:noescape
func maxAbsBitsAVX512Asm(w *float32, n int64) uint32

//go:noescape
func maxAbsBitsAVX2Asm(w *float32, n int64) uint32

//go:noescape
func packRow8AVX512Asm(w *float32, n int64, inv float64, dst *int8) int32

//go:noescape
func packRow8AVX2Asm(w *float32, n int64, inv float64, dst *int8) int32

//go:noescape
func dequantRows8AVX512Asm(acc *int32, scales *float32, rowSums *int32, bias *float32, sa float32, zp int32, out *float32, n int64)

//go:noescape
func dequantRows8AVX2Asm(acc *int32, scales *float32, rowSums *int32, bias *float32, sa float32, zp int32, out *float32, n int64)

const (
	absBits32       = 0x7fffffff
	maxFiniteBits32 = 0x7f7fffff // math.MaxFloat32
)

func quantizeRow8AVX512(w []float32, dst []int8) (float32, int32, bool) {
	return quantizeRow8Asm(maxAbsBitsAVX512Asm, packRow8AVX512Asm, 0, w, dst)
}

func quantizeRow8AVX2(w []float32, dst []int8) (float32, int32, bool) {
	return quantizeRow8Asm(maxAbsBitsAVX2Asm, packRow8AVX2Asm, 7, w, dst)
}

// quantizeRow8Asm runs one tier's QuantizeRow8. tail is the tier's Go-side
// remainder mask, as in dotManyBiasAsm.
func quantizeRow8Asm(maxAbs func(w *float32, n int64) uint32, pack func(w *float32, n int64, inv float64, dst *int8) int32,
	tail int, w []float32, dst []int8) (scale float32, rowSum int32, finite bool) {
	checkQuantizeRow8(w, dst)
	n := len(w)
	dst = dst[:n]
	nv := n &^ tail
	var m uint32
	if nv > 0 {
		m = maxAbs(&w[0], int64(nv))
	}
	for _, v := range w[nv:] {
		m = max(m, math.Float32bits(v)&absBits32)
	}
	switch {
	case m > maxFiniteBits32:
		return 0, 0, false
	case m == 0:
		clear(dst)
		return 0, 0, true
	}
	scale = math.Float32frombits(m) / 127
	inv := float64(scale)
	if nv > 0 {
		rowSum = pack(&w[0], int64(nv), inv, &dst[0])
	}
	for i := nv; i < n; i++ {
		qi := quantize8(w[i], inv)
		dst[i] = int8(qi)
		rowSum += qi
	}
	return scale, rowSum, true
}

func dequantRows8AVX512(acc []int32, scales []float32, rowSums []int32, bias []float32, sa float32, zp int32, out []float32) {
	dequantRows8Asm(dequantRows8AVX512Asm, 0, acc, scales, rowSums, bias, sa, zp, out)
}

func dequantRows8AVX2(acc []int32, scales []float32, rowSums []int32, bias []float32, sa float32, zp int32, out []float32) {
	dequantRows8Asm(dequantRows8AVX2Asm, 7, acc, scales, rowSums, bias, sa, zp, out)
}

func dequantRows8Asm(asm func(acc *int32, scales *float32, rowSums *int32, bias *float32, sa float32, zp int32, out *float32, n int64),
	tail int, acc []int32, scales []float32, rowSums []int32, bias []float32, sa float32, zp int32, out []float32) {
	checkDequantRows8(acc, scales, rowSums, bias, out)
	n := len(out)
	acc, scales, rowSums, bias = acc[:n], scales[:n], rowSums[:n], bias[:n]
	nv := n &^ tail
	if nv > 0 {
		asm(&acc[0], &scales[0], &rowSums[0], &bias[0], sa, zp, &out[0], int64(nv))
	}
	dequantRows8(acc[nv:], scales[nv:], rowSums[nv:], bias[nv:], sa, zp, out[nv:])
}
