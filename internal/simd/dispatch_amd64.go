//go:build amd64

package simd

import (
	"os"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/cpufeat"
)

// Host capability flags, probed once. clamp/Supported read these; the init
// below swaps the assembly tables in when the silicon can run them.
// SLIDE_NO_VNNI=1 forces the AVX-512 table onto the AVX2 integer kernel —
// the CI knob for exercising the VNNI-absent fallback on VNNI hardware.
var (
	feat         = cpufeat.Detect()
	haveAVX2     = feat.HasAVX2Tier()
	haveAVX512   = feat.HasAVX512Tier()
	haveAVX512BF = haveAVX512 && feat.AVX512BF16
	haveVNNI     = feat.HasVNNITier() && os.Getenv("SLIDE_NO_VNNI") == ""
)

func init() {
	if haveAVX2 {
		avx2Kernels = Kernels{
			Mode:     AVX2,
			Dot:      dotAVX2,
			Axpy:     axpyAVX2,
			Add:      addAVX2,
			Scale:    scaleAVX2,
			Max:      maxAVX2,
			ArgMax:   argMaxVec, // no library caller left; see DESIGN.md "DWTA fingerprints"
			AdamStep: adamAVX2,

			GatherArgMax: gatherArgMaxAVX2,

			DotManyBias: dotManyBiasAVX2,
			AxpyTwo:     axpyTwoAVX2,

			AxpyTwoMany: axpyTwoManyAVX2,
			GatherAxpy:  gatherAxpyAVX2,
			ScatterAxpy: scatterAxpyAVX2,

			DotManyBiasBatch: dotManyBiasBatchAVX2,
			DotManyU8S8:      dotManyU8S8AVX2,

			DotBF16F32:         dotBF16F32AVX2,
			DotBF16:            dotBF16AVX2,
			AxpyBF16:           axpyBF16AVX2,
			AdamStepBF16:       adamStepBF16, // element-local re-rounding: software on every tier
			DotManyBiasBF16Act: dotManyBiasBF16ActAVX2,
			DotManyBiasBF16:    dotManyBiasBF16AVX2,

			DotU8S8: dotU8S8AVX2,

			QuantizeRow8: quantizeRow8AVX2,
			DequantRows8: dequantRows8AVX2,

			PackBF16:  packBF16Go,
			RoundBF16: roundBF16Go,
		}
	}
	if haveAVX512 {
		avx512Kernels = Kernels{
			Mode:     AVX512,
			Dot:      dotAVX512,
			Axpy:     axpyAVX512,
			Add:      addAVX512,
			Scale:    scaleAVX512,
			Max:      maxAVX512,
			ArgMax:   argMaxVec,
			AdamStep: adamAVX512,

			GatherArgMax: gatherArgMaxAVX512,

			DotManyBias: dotManyBiasAVX512,
			AxpyTwo:     axpyTwoAVX512,

			AxpyTwoMany: axpyTwoManyAVX512,
			GatherAxpy:  gatherAxpyAVX512,
			ScatterAxpy: scatterAxpyAVX512,

			DotManyBiasBatch: dotManyBiasBatchAVX512,
			DotManyU8S8:      dotManyU8S8AVX2, // as DotU8S8 below

			DotBF16F32:         dotBF16F32AVX512,
			DotBF16:            dotBF16AVX512,
			AxpyBF16:           axpyBF16AVX512,
			AdamStepBF16:       adamStepBF16,
			DotManyBiasBF16Act: dotManyBiasBF16ActAVX512,
			DotManyBiasBF16:    dotManyBiasBF16AVX512,

			// The integer dot and its walk ride the AVX2 kernels unless the
			// silicon has VNNI (see below); either way the result is the
			// identical int32 — exact math, so the swap is pure throughput.
			DotU8S8: dotU8S8AVX2,

			QuantizeRow8: quantizeRow8AVX512,
			DequantRows8: dequantRows8AVX512,

			PackBF16:  packBF16Go,
			RoundBF16: roundBF16Go,
		}
		if haveVNNI {
			avx512Kernels.DotU8S8 = dotU8S8VNNI
			avx512Kernels.DotManyU8S8 = dotManyU8S8VNNI
		}
		if haveAVX512BF {
			// Hardware VCVTNEPS2BF16. Divergence from the software
			// converter: subnormal float32 inputs are treated as zero
			// (the instruction is DAZ); normal, zero, Inf and NaN inputs
			// convert identically (see DESIGN.md "Native kernel backend").
			avx512Kernels.PackBF16 = packBF16AVX512
			avx512Kernels.RoundBF16 = roundBF16AVX512
		}
	}
}

// --- Assembly externs -------------------------------------------------------
//
// The *AVX2Asm kernels require n > 0 and n%8 == 0 (Go wrappers run the
// remainder with scalar code that matches the portable tier bit for bit).
// The *AVX512Asm kernels accept any n >= 0 (n > 0 for max) and finish with
// masked loads/stores.

//go:noescape
func dotAVX2Asm(a, b *float32, n int64) float32

//go:noescape
func dotAVX512Asm(a, b *float32, n int64) float32

//go:noescape
func axpyAVX2Asm(alpha float32, x, y *float32, n int64)

//go:noescape
func axpyAVX512Asm(alpha float32, x, y *float32, n int64)

//go:noescape
func axpyTwoAVX2Asm(gz float32, h, grad, w, dh *float32, n int64)

//go:noescape
func axpyTwoAVX512Asm(gz float32, h, grad, w, dh *float32, n int64)

//go:noescape
func scaleAVX2Asm(alpha float32, x *float32, n int64)

//go:noescape
func scaleAVX512Asm(alpha float32, x *float32, n int64)

//go:noescape
func addAVX2Asm(x, y *float32, n int64)

//go:noescape
func addAVX512Asm(x, y *float32, n int64)

//go:noescape
func maxAVX2Asm(x *float32, n int64) float32

//go:noescape
func maxAVX512Asm(x *float32, n int64) float32

//go:noescape
func gatherArgMaxAVX2Asm(vals *float32, idx *int32, stride, n, slots int64, win *uint8)

//go:noescape
func gatherArgMaxAVX512Asm(vals *float32, idx *int32, nbins, slots int64, win *uint8)

//go:noescape
func adamAVX2Asm(w, m, v, grad *float32, n int64, beta1, beta2, omb1, omb2, eps, corr float32)

//go:noescape
func adamAVX512Asm(w, m, v, grad *float32, n int64, beta1, beta2, omb1, omb2, eps, corr float32)

//go:noescape
func dotBF16F32AVX2Asm(a *bf16.BF16, b *float32, n int64) float32

//go:noescape
func dotBF16F32AVX512Asm(a *bf16.BF16, b *float32, n int64) float32

//go:noescape
func dotBF16AVX2Asm(a, b *bf16.BF16, n int64) float32

//go:noescape
func dotBF16AVX512Asm(a, b *bf16.BF16, n int64) float32

//go:noescape
func axpyBF16AVX2Asm(alpha float32, x *bf16.BF16, y *float32, n int64)

//go:noescape
func axpyBF16AVX512Asm(alpha float32, x *bf16.BF16, y *float32, n int64)

//go:noescape
func dotU8S8AVX2Asm(a *uint8, b *int8, n int64) int32

//go:noescape
func dotU8S8VNNIAsm(a *uint8, b *int8, n int64) int32

//go:noescape
func packBF16AVX512Asm(dst *bf16.BF16, src *float32, n int64)

//go:noescape
func roundBF16AVX512Asm(x *float32, n int64)

// --- AVX2 wrappers ----------------------------------------------------------
//
// Tail elements (n%8) run in Go with the exact expression shapes of the
// scalar reference, so tails are bit-identical to the portable tier; only
// the vector body's FMA and reduction order can differ (dot/sum kernels).

func dotAVX2(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 7
	var s float32
	if nv > 0 {
		s = dotAVX2Asm(&a[0], &b[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

func axpyAVX2(alpha float32, x, y []float32) {
	n := len(x)
	y = y[:n]
	nv := n &^ 7
	if nv > 0 {
		axpyAVX2Asm(alpha, &x[0], &y[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

func axpyTwoAVX2(gz float32, h, grad, w, dh []float32) {
	n := len(h)
	grad = grad[:n]
	w = w[:n]
	dh = dh[:n]
	nv := n &^ 7
	if nv > 0 {
		axpyTwoAVX2Asm(gz, &h[0], &grad[0], &w[0], &dh[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		grad[i] += gz * h[i]
		dh[i] += gz * w[i]
	}
}

func scaleAVX2(alpha float32, x []float32) {
	n := len(x)
	nv := n &^ 7
	if nv > 0 {
		scaleAVX2Asm(alpha, &x[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		x[i] *= alpha
	}
}

func addAVX2(x, y []float32) {
	n := len(x)
	y = y[:n]
	nv := n &^ 7
	if nv > 0 {
		addAVX2Asm(&x[0], &y[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		y[i] += x[i]
	}
}

func maxAVX2(x []float32) float32 {
	if len(x) == 0 {
		panic("simd: Max of empty slice")
	}
	nv := len(x) &^ 7
	if nv == 0 {
		return Max(x)
	}
	m := maxAVX2Asm(&x[0], int64(nv))
	for _, v := range x[nv:] {
		if v > m {
			m = v
		}
	}
	return m
}

// gatherArgMaxAVX2 runs whole registers of 8 bins in assembly and the last
// len(win)%8 bins through the portable loop, which is exact, so the split is
// invisible in the result.
func gatherArgMaxAVX2(vals []float32, idx []int32, slots int, win []uint8) {
	checkGatherArgMax(len(vals), len(idx), slots, len(win))
	nv := len(win) &^ 7
	if nv > 0 {
		gatherArgMaxAVX2Asm(&vals[0], &idx[0], int64(len(win)), int64(nv), int64(slots), &win[0])
	}
	gatherArgMaxFrom(vals, idx, slots, win, nv)
}

func adamAVX2(w, m, v, g []float32, p AdamParams) {
	n := len(w)
	m = m[:n]
	v = v[:n]
	g = g[:n]
	omb1 := 1 - p.Beta1
	omb2 := 1 - p.Beta2
	nv := n &^ 7
	if nv > 0 {
		adamAVX2Asm(&w[0], &m[0], &v[0], &g[0], int64(nv),
			p.Beta1, p.Beta2, omb1, omb2, p.Eps, p.CorrLR)
	}
	for i := nv; i < n; i++ {
		gk := g[i]
		mk := p.Beta1*m[i] + omb1*gk
		vk := p.Beta2*v[i] + omb2*gk*gk
		m[i] = mk
		v[i] = vk
		w[i] -= p.CorrLR * mk / (sqrt32(vk) + p.Eps)
	}
}

// dotU8S8AVX2 and dotU8S8VNNI run the vector body on the aligned prefix and
// finish with a Go tail. Integer accumulation is exact, so both are
// bit-identical to the scalar reference regardless of blocking.

func dotU8S8AVX2(a []uint8, b []int8) int32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 15
	var s int32
	if nv > 0 {
		s = dotU8S8AVX2Asm(&a[0], &b[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

func dotU8S8VNNI(a []uint8, b []int8) int32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 63
	var s int32
	if nv > 0 {
		s = dotU8S8VNNIAsm(&a[0], &b[0], int64(nv))
	}
	// Sub-64-byte remainder: reuse the AVX2 kernel (VNNI implies AVX2).
	if n > nv {
		s += dotU8S8AVX2(a[nv:], b[nv:])
	}
	return s
}

func dotBF16F32AVX2(a []bf16.BF16, b []float32) float32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 7
	var s float32
	if nv > 0 {
		s = dotBF16F32AVX2Asm(&a[0], &b[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		s += a[i].Float32() * b[i]
	}
	return s
}

func dotBF16AVX2(a, b []bf16.BF16) float32 {
	n := len(a)
	b = b[:n]
	nv := n &^ 7
	var s float32
	if nv > 0 {
		s = dotBF16AVX2Asm(&a[0], &b[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		s += a[i].Float32() * b[i].Float32()
	}
	return s
}

func axpyBF16AVX2(alpha float32, x []bf16.BF16, y []float32) {
	n := len(x)
	y = y[:n]
	nv := n &^ 7
	if nv > 0 {
		axpyBF16AVX2Asm(alpha, &x[0], &y[0], int64(nv))
	}
	for i := nv; i < n; i++ {
		y[i] += alpha * x[i].Float32()
	}
}

func dotManyBiasBF16ActAVX2(rows [][]float32, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16Act row length mismatch")
		}
		out[k] = dotBF16F32AVX2(hBF, r) + bias[id]
	}
}

func dotManyBiasBF16AVX2(rows [][]bf16.BF16, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16 row length mismatch")
		}
		out[k] = dotBF16AVX2(r, hBF) + bias[id]
	}
}

// --- AVX512 wrappers --------------------------------------------------------
//
// Tails are masked inside the assembly; wrappers only guard the empty slice
// (no base pointer to take) and enforce the length contracts.

func dotAVX512(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	return dotAVX512Asm(&a[0], &b[0], int64(n))
}

func axpyAVX512(alpha float32, x, y []float32) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	axpyAVX512Asm(alpha, &x[0], &y[0], int64(n))
}

func axpyTwoAVX512(gz float32, h, grad, w, dh []float32) {
	n := len(h)
	if n == 0 {
		return
	}
	grad = grad[:n]
	w = w[:n]
	dh = dh[:n]
	axpyTwoAVX512Asm(gz, &h[0], &grad[0], &w[0], &dh[0], int64(n))
}

func scaleAVX512(alpha float32, x []float32) {
	if len(x) == 0 {
		return
	}
	scaleAVX512Asm(alpha, &x[0], int64(len(x)))
}

func addAVX512(x, y []float32) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	addAVX512Asm(&x[0], &y[0], int64(n))
}

func maxAVX512(x []float32) float32 {
	if len(x) == 0 {
		panic("simd: Max of empty slice")
	}
	return maxAVX512Asm(&x[0], int64(len(x)))
}

func gatherArgMaxAVX512(vals []float32, idx []int32, slots int, win []uint8) {
	checkGatherArgMax(len(vals), len(idx), slots, len(win))
	if len(win) == 0 {
		return
	}
	gatherArgMaxAVX512Asm(&vals[0], &idx[0], int64(len(win)), int64(slots), &win[0])
}

func adamAVX512(w, m, v, g []float32, p AdamParams) {
	n := len(w)
	if n == 0 {
		return
	}
	m = m[:n]
	v = v[:n]
	g = g[:n]
	adamAVX512Asm(&w[0], &m[0], &v[0], &g[0], int64(n),
		p.Beta1, p.Beta2, 1-p.Beta1, 1-p.Beta2, p.Eps, p.CorrLR)
}

func dotBF16F32AVX512(a []bf16.BF16, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	return dotBF16F32AVX512Asm(&a[0], &b[0], int64(n))
}

func dotBF16AVX512(a, b []bf16.BF16) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	return dotBF16AVX512Asm(&a[0], &b[0], int64(n))
}

func axpyBF16AVX512(alpha float32, x []bf16.BF16, y []float32) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	axpyBF16AVX512Asm(alpha, &x[0], &y[0], int64(n))
}

func dotManyBiasBF16ActAVX512(rows [][]float32, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16Act row length mismatch")
		}
		out[k] = dotBF16F32AVX512(hBF, r) + bias[id]
	}
}

func dotManyBiasBF16AVX512(rows [][]bf16.BF16, bias []float32, ids []int32, hBF []bf16.BF16, out []float32) {
	out = out[:len(ids)]
	for k, id := range ids {
		r := rows[id]
		if len(r) != len(hBF) {
			panic("simd: DotManyBiasBF16 row length mismatch")
		}
		out[k] = dotBF16AVX512(r, hBF) + bias[id]
	}
}

func packBF16AVX512(dst []bf16.BF16, src []float32) {
	if len(dst) != len(src) {
		panic("bf16: Convert length mismatch")
	}
	if len(src) == 0 {
		return
	}
	packBF16AVX512Asm(&dst[0], &src[0], int64(len(src)))
}

func roundBF16AVX512(x []float32) {
	if len(x) == 0 {
		return
	}
	roundBF16AVX512Asm(&x[0], int64(len(x)))
}
