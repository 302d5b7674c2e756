// Package quant is the quantized serving tier: a packed int8 rendering of
// the output layer's row weights, produced at snapshot time from the
// f32/BF16 training views. Training never sees this package —
// quantization is a one-way, serving-side transform, the deployment
// counterpart of the paper's precision ablations.
//
// Scheme (following FullPack's per-vector symmetric layout):
//
//   - Weights: per-row symmetric int8. scale = maxabs/127,
//     q = clamp(round(w/scale)). Zero rows quantize to scale 0 and an
//     all-zero row. Each row also carries its element sum (recomputed on
//     deserialize, never on the wire) for the zero-point correction below.
//   - Activations: per-sample asymmetric u7 in [0,127] with a zero point:
//     lo = min(0, min h), hi = max(0, max h), scale = (hi-lo)/127,
//     zp = round(-lo/scale). The u7 bound makes the AVX2 widening kernels
//     saturation-free, so every kernel tier accumulates the identical int32.
//   - Dequantized logit: float32(sw*sa) * float32(acc - zp*rowSum) + bias,
//     with explicit float32 conversions so the compiler cannot fuse the
//     multiply-add (bit-stable across builds).
//
// Packing and the exact walk's dequantizing are simd.Kernels entries,
// QuantizeRow8 and DequantRows8, and every kernel tier returns the same bits.
//
// Determinism: row quantization is a pure per-row function of the f32 bytes
// (float64 divide + round-half-away, no accumulation across rows), so the
// same snapshot packs to bit-identical bytes at any worker count — the
// sharded-determinism contract survives quantization.
//
// Only 8 bits: a 4-bit width existed and was deleted by measurement. FullPack
// (PAPERS.md, arXiv 2211.06982) shows sub-byte weights pay only while the
// vector lanes stay full; unpacked in a scalar loop they scored the whole
// layer 4–9x slower than int8 (DESIGN.md "Quantized serving tier"), and no
// workload selected them. A narrower width comes back only together with a
// lane-full kernel on every assembly tier and a benchmark workload that
// serves from it.
package quant

import (
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
)

// ErrNonFinite aliases the layer sentinel: a NaN/Inf row refuses to
// quantize, the same quarantine signal snapshot publication already tests
// with errors.Is.
var ErrNonFinite = layer.ErrNonFinite

// MaxDotLen bounds In so the int32 dequant arithmetic cannot overflow:
// |acc - zp*rowSum| <= 2 * 127*127 * In must stay under 2^31, giving
// In < 66577. Hidden widths are orders of magnitude below this.
const MaxDotLen = 1 << 16

// RowQ is an immutable quantized rendering of a RowWeights view: packed
// rows, per-row scales, and the f32 biases. Like the layer views it is
// copy-on-write friendly — PatchRows shares untouched rows with its source.
type RowQ struct {
	In, Out int
	// Bits is the weight width, always 8 (packed int8, In bytes a row); it
	// is a field because the wire header carries it.
	Bits int

	scales  []float32
	rowSums []int32 // per-row element sums, recomputed on read
	rows8   [][]int8
	bias    []float32
}

func validBits(bits int) error {
	if bits != 8 {
		return fmt.Errorf("quant: unsupported bit width %d (want 8)", bits)
	}
	return nil
}

// newRowQ allocates the per-row views over one contiguous backing each.
func newRowQ(in, out, bits int) *RowQ {
	q := &RowQ{
		In: in, Out: out, Bits: bits,
		scales:  make([]float32, out),
		rowSums: make([]int32, out),
		bias:    make([]float32, out),
	}
	backing := make([]int8, out*in)
	q.rows8 = make([][]int8, out)
	for i := range q.rows8 {
		q.rows8[i] = backing[i*in : (i+1)*in : (i+1)*in]
	}
	return q
}

// QuantizeRowWeights quantizes a full f32/BF16 row view into a RowQ. Rows
// containing NaN/Inf refuse to quantize (error wraps ErrNonFinite): a
// non-finite value would silently skew its row's scale, so the health
// quarantine rejects it at the packing boundary instead.
func QuantizeRowWeights(src *layer.RowWeights, bits int) (*RowQ, error) {
	if err := validBits(bits); err != nil {
		return nil, err
	}
	if src.In > MaxDotLen {
		return nil, fmt.Errorf("quant: row length %d exceeds MaxDotLen %d", src.In, MaxDotLen)
	}
	ks := simd.Active()
	q := newRowQ(src.In, src.Out, bits)
	buf := make([]float32, src.In)
	for i := 0; i < src.Out; i++ {
		row := src.RowF32(i, buf)
		var finite bool
		if q.scales[i], q.rowSums[i], finite = ks.QuantizeRow8(row, q.rows8[i]); !finite {
			return nil, fmt.Errorf("quant: %w: row %d element %d", ErrNonFinite, i, health.FirstNonFinite32(row))
		}
	}
	bias := src.Bias()
	if k := health.FirstNonFinite32(bias); k >= 0 {
		return nil, fmt.Errorf("quant: %w: bias[%d]", ErrNonFinite, k)
	}
	copy(q.bias, bias)
	return q, nil
}

// QuantizeActs quantizes one dense activation vector into u7 with a zero
// point, filling qa (len == len(h)). The [0,127] range is what keeps the
// integer kernels saturation-free. All-zero inputs return scale 0 (logits
// collapse to the biases, matching the f32 forward on a zero activation).
func QuantizeActs(h []float32, qa []uint8) (scale float32, zp int32) {
	if len(qa) != len(h) {
		panic("quant: QuantizeActs buffer length mismatch")
	}
	var lo, hi float32
	for _, v := range h {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		for i := range qa {
			qa[i] = 0
		}
		return 0, 0
	}
	scale = (hi - lo) / 127
	inv := float64(scale)
	zp = int32(math.Round(float64(-lo) / inv))
	for i, v := range h {
		qi := int32(math.Round(float64(v)/inv)) + zp
		if qi < 0 {
			qi = 0
		} else if qi > 127 {
			qi = 127
		}
		qa[i] = uint8(qi)
	}
	return scale, zp
}

// Scale returns row i's dequantization scale (tests and diagnostics).
func (q *RowQ) Scale(i int32) float32 { return q.scales[i] }

// Bias returns a read-only view of the bias vector.
func (q *RowQ) Bias() []float32 { return q.bias }

// Row8 returns row i's packed int8 view (read-only).
func (q *RowQ) Row8(i int32) []int8 { return q.rows8[i] }
