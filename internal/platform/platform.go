// Package platform describes the host the reproduction runs on: the
// throughput-relevant attributes internal/costmodel's step prediction is
// parameterized by, and which benchmark/ records in every result's host
// fingerprint. The paper's CLX/CPX/V100 testbed is not modeled (DESIGN.md
// "Substitutions"); its epoch times are measured there, not here.
package platform

import (
	"runtime"

	"github.com/slide-cpu/slide/internal/cpufeat"
)

// Platform models the throughput-relevant attributes of one CPU machine.
type Platform struct {
	Name string

	Cores          int
	ThreadsPerCore int
	ClockGHz       float64
	// VectorLanesF32 is the SIMD width in float32 lanes (16 for AVX-512).
	VectorLanesF32 int
	// FMAPorts is the number of vector FMA units per core.
	FMAPorts int
	// HasBF16 marks AVX512-BF16 support.
	HasBF16 bool
	// DRAMGBs is the aggregate DRAM bandwidth in GB/s.
	DRAMGBs float64
}

// Host describes the machine this process runs on. SIMD attributes come
// from CPUID feature detection (internal/cpufeat): the lane count is the
// widest float32 SIMD width the silicon can actually drive and HasBF16
// reports real AVX512-BF16 support, so the cost model's step prediction is
// parameterized by measured capability. On hosts without any detected
// vector extension (including non-amd64 builds) the lane count falls back
// to 4: the portable Go tier's unrolled independent accumulator chains
// sustain a measured ~2-3x over scalar (ILP, not SIMD), and the fallback
// must stay below a real AVX2 host's 8 lanes.
//
// Clock and bandwidth remain conservative estimates: they are not
// discoverable portably and only scale the prediction's absolute numbers.
func Host() Platform {
	f := cpufeat.Detect()
	lanes := f.VectorLanesF32()
	if lanes == 0 {
		lanes = 4 // portable Go tier: ILP-equivalent width, below real AVX2
	}
	return Platform{
		Name:  "Host",
		Cores: runtime.NumCPU(), ThreadsPerCore: 1, ClockGHz: 2.5,
		VectorLanesF32: lanes, FMAPorts: 1, HasBF16: f.AVX512BF16,
		DRAMGBs: 20,
	}
}
