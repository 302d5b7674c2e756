// Package platform describes the paper's three evaluation machines (§3):
// the Cascade Lake (CLX) and Cooper Lake (CPX) Xeon servers and the NVIDIA
// V100 GPU, plus the host the reproduction actually runs on.
//
// We cannot execute on the paper's testbed, so cross-platform rows of
// Table 2 / Figure 6 are produced by the roofline estimator in
// internal/costmodel parameterized by these descriptors; same-hardware
// ratios are measured directly on Host. The numbers below are public
// specifications (core counts, clocks, channel counts) — see DESIGN.md
// "Substitutions".
package platform

import (
	"runtime"

	"github.com/slide-cpu/slide/internal/cpufeat"
)

// Kind distinguishes processor families.
type Kind int

const (
	// CPU is an x86 multicore.
	CPU Kind = iota
	// GPU is a CUDA accelerator.
	GPU
)

// Platform models the throughput-relevant attributes of one machine.
type Platform struct {
	Name string
	Kind Kind

	// CPU attributes.
	Cores          int
	ThreadsPerCore int
	ClockGHz       float64
	// VectorLanesF32 is the SIMD width in float32 lanes (16 for AVX-512).
	VectorLanesF32 int
	// FMAPorts is the number of 512-bit FMA units per core (2 on these
	// Xeons).
	FMAPorts int
	// HasBF16 marks AVX512-BF16 support (CPX only among the paper's CPUs).
	HasBF16 bool
	// L3MB is the last-level cache size in megabytes.
	L3MB float64
	// DRAMGBs is the aggregate DRAM bandwidth in GB/s.
	DRAMGBs float64

	// GPU attributes.
	// TFLOPSF32 is peak dense float32 throughput.
	TFLOPSF32 float64
	// HBMGBs is device memory bandwidth in GB/s.
	HBMGBs float64
	// KernelLaunchUs is the per-kernel launch overhead in microseconds.
	KernelLaunchUs float64
}

// Threads returns the hardware thread count (cores × SMT).
func (p Platform) Threads() int { return p.Cores * p.ThreadsPerCore }

// CLX is the paper's Cascade Lake server: dual 24-core Xeon Platinum 8260L
// at 2.4 GHz, AVX-512 without BF16, 36 MB L3, 6 DDR4-2933 channels per
// socket (§3).
var CLX = Platform{
	Name: "CLX", Kind: CPU,
	Cores: 48, ThreadsPerCore: 2, ClockGHz: 2.4,
	VectorLanesF32: 16, FMAPorts: 2, HasBF16: false,
	L3MB: 36, DRAMGBs: 2 * 6 * 23.5, // 2 sockets × 6 ch × 23.5 GB/s
}

// CPX is the paper's Cooper Lake server: four 28-core sockets (112 cores)
// with AVX512-BF16, 39 MB L3 (§3).
var CPX = Platform{
	Name: "CPX", Kind: CPU,
	Cores: 112, ThreadsPerCore: 2, ClockGHz: 2.5,
	VectorLanesF32: 16, FMAPorts: 2, HasBF16: true,
	L3MB: 39, DRAMGBs: 4 * 6 * 23.5,
}

// V100 is the paper's GPU baseline: NVIDIA Tesla V100 32GB (§5.2).
var V100 = Platform{
	Name: "V100", Kind: GPU,
	TFLOPSF32: 15.7, HBMGBs: 900, KernelLaunchUs: 10,
}

// Host describes the machine this process runs on, for measured rows. SIMD
// attributes come from CPUID feature detection (internal/cpufeat): the lane
// count is the widest float32 SIMD width the silicon can actually drive and
// HasBF16 reports real AVX512-BF16 support, so same-hardware roofline rows
// in internal/costmodel are parameterized by measured capability. On hosts
// without any detected vector extension (including non-amd64 builds) the
// lane count falls back to 4: the portable Go tier's unrolled independent
// accumulator chains sustain a measured ~2-3x over scalar (ILP, not SIMD),
// and the fallback must stay below a real AVX2 host's 8 lanes so roofline
// ordering between hosts is preserved.
//
// Clock, cache and bandwidth remain conservative estimates: they are not
// discoverable portably and only scale the roofline's absolute numbers, not
// the same-hardware ratios.
func Host() Platform {
	f := cpufeat.Detect()
	lanes := f.VectorLanesF32()
	if lanes == 0 {
		lanes = 4 // portable Go tier: ILP-equivalent width, below real AVX2
	}
	return Platform{
		Name: "Host", Kind: CPU,
		Cores: runtime.NumCPU(), ThreadsPerCore: 1, ClockGHz: 2.5,
		VectorLanesF32: lanes, FMAPorts: 1, HasBF16: f.AVX512BF16,
		L3MB: 16, DRAMGBs: 20,
	}
}
