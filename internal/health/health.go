// Package health holds the finite scans of the train-and-serve stack: the
// NaN/±Inf counts the training engines' guards take over the logits, and the
// first-offender searches the layer and quantization checks use to name
// damaged weights. They are pure functions of the values
// scanned, so a verdict built on them is bit-identical across worker counts.
// The loss-trajectory monitor that turns these counts into a verdict lives
// with the training session in package slide.
package health

import (
	"math"

	"github.com/slide-cpu/slide/internal/bf16"
)

// nonFiniteMask32 selects the float32 exponent bits: all ones means NaN or
// ±Inf. One integer test per value — branch-free in the scan loop below.
const nonFiniteMask32 = 0x7f800000

// CountNonFinite32 returns how many values in x are NaN or ±Inf. The guard
// scan of the training engines: O(len) integer compares over data already
// resident in cache from the forward pass.
func CountNonFinite32(x []float32) int64 {
	var bad int64
	for _, v := range x {
		if math.Float32bits(v)&nonFiniteMask32 == nonFiniteMask32 {
			bad++
		}
	}
	return bad
}

// FirstNonFinite32 returns the index of the first non-finite value in x, or
// -1 — the quarantine scans use it to name the damage.
func FirstNonFinite32(x []float32) int {
	for i, v := range x {
		if math.Float32bits(v)&nonFiniteMask32 == nonFiniteMask32 {
			return i
		}
	}
	return -1
}

// FirstNonFiniteBF16 is FirstNonFinite32 over bfloat16 storage.
func FirstNonFiniteBF16(x []bf16.BF16) int {
	for i, v := range x {
		if uint16(v)&0x7f80 == 0x7f80 {
			return i
		}
	}
	return -1
}
