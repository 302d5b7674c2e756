// Package mem provides the parameter-memory substrate for the §4.1
// "Removing Parameter Memory Fragmentation" optimization.
//
// The optimized SLIDE reserves one big contiguous block per layer so that
// neighbouring neurons' weight vectors share cache lines and sequential
// prefetch; the naive SLIDE allocated every neuron's weights independently,
// scattering them across the heap. Contiguous2D and Scattered2D construct
// exactly those two layouts behind identical [][]float32 views, so the rest
// of the system (and the ablation harness) can switch layouts without
// touching kernel code.
// All backing allocations are aligned to 64 bytes (one cache line, one
// AVX-512 register): alignedSlice over-allocates by one cache line and
// re-slices to the first aligned element. Rows carved at offsets that are
// multiples of 16 floats therefore start cache-line- and zmm-aligned; rows
// at other offsets are unaligned, and kernels must (and do) use unaligned
// loads — only the backing block start is guaranteed.
package mem

import "unsafe"

// alignBytes is the backing-allocation alignment: one cache line, which is
// also the width of one AVX-512 register.
const alignBytes = 64

// alignedSlice returns a zeroed length-n float32 slice whose first element
// sits on a 64-byte boundary (pad-and-slice over a make allocation).
func alignedSlice(n int) []float32 {
	if n == 0 {
		return nil
	}
	const pad = alignBytes / 4 // elements per cache line
	buf := make([]float32, n+pad-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % alignBytes; rem != 0 {
		off = int((alignBytes - rem) / 4)
	}
	return buf[off : off+n : off+n]
}

// Contiguous2D returns rows×cols as row views into one contiguous backing
// slice (also returned, for whole-block kernels such as the fused ADAM pass
// of §4.3.1). The backing block starts on a 64-byte boundary.
func Contiguous2D(rows, cols int) ([][]float32, []float32) {
	if rows < 0 || cols < 0 {
		panic("mem: negative dimensions")
	}
	backing := alignedSlice(rows * cols)
	views := make([][]float32, rows)
	for i := range views {
		views[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return views, backing
}

// Scattered2D returns rows×cols with every row allocated independently and
// decoy allocations interleaved between rows, reproducing the fragmented
// heap placement of per-neuron weight vectors in naive SLIDE. The decoys are
// retained (returned) so the runtime cannot coalesce the rows.
func Scattered2D(rows, cols int) ([][]float32, [][]float32) {
	if rows < 0 || cols < 0 {
		panic("mem: negative dimensions")
	}
	views := make([][]float32, rows)
	decoys := make([][]float32, 0, rows)
	for i := range views {
		views[i] = make([]float32, cols)
		// Interleave a small decoy allocation so consecutive rows land on
		// different heap chunks rather than a tight bump-allocated run.
		decoys = append(decoys, make([]float32, 8))
	}
	return views, decoys
}
