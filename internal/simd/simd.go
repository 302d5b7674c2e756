// Package simd is the vector-unit substrate of the reproduction.
//
// The paper's Optimized SLIDE vectorizes its hot loops with AVX-512
// intrinsics (§4.2-4.3): 512-bit registers hold 16 float32 lanes, and the
// kernels are built from pairwise multiply, reduce-sum, broadcast-fill and
// lane-wise max operations. This package implements those kernels in four
// tiers, one Kernels table each (kernels.go); the tier is selected once at
// startup by CPUID feature detection and callers take its table from Active:
//
//	Scalar — naive one-element loops (the paper's "-no-avx" ablation build)
//	Vector — portable Go: hand-unrolled 16-lane blocks with independent
//	         accumulator chains (the cross-architecture reference; the only
//	         vectorized tier on non-amd64 builds)
//	AVX2   — hand-written Go assembly over 8-lane ymm registers with FMA
//	AVX512 — hand-written Go assembly over 16-lane zmm registers with
//	         masked tails, plus AVX512-BF16 conversions where the CPU
//	         reports them
//
// Kernels never allocate, and an operand too short for the call panics (a
// caller bug) rather than being read or written past. See DESIGN.md "Native
// kernel backend" for the FMA/ULP divergence policy between tiers.
package simd

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Width is the number of float32 lanes in one emulated vector register
// (512 bits / 32 bits per lane). The portable Vector tier unrolls to this
// width; the AVX512 tier realizes it in hardware.
const Width = 16

// Mode names a kernel tier: which table Active returns.
type Mode int32

const (
	// Vector mode uses the portable 16-lane unrolled Go kernels (the
	// cross-architecture AVX-512 substitute and assembly reference).
	Vector Mode = iota
	// Scalar mode uses naive one-element loops (the "-no-avx" build).
	Scalar
	// AVX2 mode uses hand-written 8-lane ymm assembly (AVX2+FMA).
	AVX2
	// AVX512 mode uses hand-written 16-lane zmm assembly (AVX-512F/BW/VL/DQ,
	// with AVX512-BF16 conversions when the CPU reports them).
	AVX512
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Vector:
		return "vector"
	case Scalar:
		return "scalar"
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	default:
		return "unknown"
	}
}

// Supported reports whether mode m can execute on this host. Scalar and
// Vector are always supported; the assembly tiers require amd64 plus the
// matching CPUID features (OS-enabled, see internal/cpufeat).
func Supported(m Mode) bool {
	switch m {
	case AVX2:
		return haveAVX2
	case AVX512:
		return haveAVX512
	case Scalar, Vector:
		return true
	default:
		return false
	}
}

// Best returns the fastest supported mode: AVX512 when the host has it,
// else AVX2, else the portable Vector tier.
func Best() Mode {
	switch {
	case haveAVX512:
		return AVX512
	case haveAVX2:
		return AVX2
	default:
		return Vector
	}
}

// clampMode resolves m to a supported mode, downgrading through the tier chain
// AVX512 → AVX2 → Vector. Scalar never downgrades (it is the ablation
// floor, always available).
func clampMode(m Mode) Mode {
	switch m {
	case AVX512:
		if haveAVX512 {
			return AVX512
		}
		fallthrough
	case AVX2:
		if haveAVX2 {
			return AVX2
		}
		return Vector
	case Scalar:
		return Scalar
	default:
		return Vector
	}
}

// mode is read on every dispatched call; atomic so the ablation harness can
// flip it between runs without a data race under -race. It always holds a
// supported mode (SetMode clamps).
var mode atomic.Int32

// init selects the startup mode: the best CPUID-supported tier, overridable
// with SLIDE_KERNEL_MODE=scalar|vector|avx2|avx512 (unsupported requests
// downgrade through the tier chain; "auto" or empty keeps the default).
// The env knob exists so CI can run the whole test suite under each tier.
func init() {
	m := Best()
	switch v := envKernelMode(); v {
	case "scalar":
		m = Scalar
	case "vector", "portable":
		m = Vector
	case "avx2":
		m = AVX2
	case "avx512":
		m = AVX512
	case "", "auto":
	default:
		// A dropped knob must not be silent: a typo would otherwise run
		// the opposite ablation extreme with nothing in the output.
		fmt.Fprintf(os.Stderr,
			"simd: unrecognized SLIDE_KERNEL_MODE=%q (want scalar|vector|avx2|avx512|auto), using %s\n",
			v, m)
	}
	SetMode(m)
}

// SetMode selects the table Active returns. Unsupported assembly tiers are
// clamped to the best supported tier below them. Flip it only between
// training runs: kernels already in flight keep the implementation they
// loaded.
func SetMode(m Mode) { mode.Store(int32(clampMode(m))) }

// CurrentMode returns the active kernel mode.
func CurrentMode() Mode { return Mode(mode.Load()) }

// envKernelMode returns the SLIDE_KERNEL_MODE override (empty when unset).
func envKernelMode() string { return os.Getenv("SLIDE_KERNEL_MODE") }

// AvailableModes returns every mode supported on this host, fastest tier
// first (ablation sweeps and per-mode test matrices iterate this).
func AvailableModes() []Mode {
	modes := make([]Mode, 0, 4)
	for _, m := range []Mode{AVX512, AVX2, Vector, Scalar} {
		if Supported(m) {
			modes = append(modes, m)
		}
	}
	return modes
}
