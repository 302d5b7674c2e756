// Package cpufeat detects the SIMD capabilities of the host processor.
//
// The paper's speedups hinge on knowing exactly what the silicon offers:
// AVX-512 for the 16-lane float32 kernels (§4.2), AVX512-BF16 for the
// hardware bfloat16 conversions (§4.4). internal/simd uses this package once
// at startup to pick its kernel tier, and internal/platform folds the
// detected attributes into the Host descriptor so the cost model's step
// prediction is parameterized by measured capability rather than guesses.
//
// Detection is implemented directly over CPUID/XGETBV (no external
// dependencies); on non-x86 architectures every flag reports false and the
// portable Go kernels are used.
package cpufeat

import "sync"

// Features describes the SIMD instruction-set extensions the host CPU and
// operating system both support (OS support matters: AVX state must be
// enabled in XCR0 by the kernel, which CPUID alone does not prove).
type Features struct {
	// AVX2 implies AVX plus 256-bit integer ops; FMA is tracked separately
	// because the AVX2 kernel tier requires both.
	AVX2 bool
	// FMA is the 3-operand fused-multiply-add extension.
	FMA bool
	// AVX512F is the AVX-512 foundation (512-bit registers, masking).
	AVX512F bool
	// AVX512BW adds byte/word element operations (masked 16-bit moves).
	AVX512BW bool
	// AVX512VL allows AVX-512 encodings at 128/256-bit width.
	AVX512VL bool
	// AVX512DQ adds dword/qword conversions and logic.
	AVX512DQ bool
	// AVX512BF16 is the bfloat16 extension (VCVTNEPS2BF16, VDPBF16PS).
	AVX512BF16 bool
	// AVX512VNNI is the 512-bit integer dot-product extension (VPDPBUSD):
	// u8 x s8 multiply-accumulate into i32 lanes, the int8 serving kernel.
	AVX512VNNI bool
	// AVXVNNI is the VEX-encoded 256-bit VNNI found on AVX-512-less client
	// parts (Alder Lake and later). Detection-only today: the repo's ymm
	// integer kernel uses the universally-available VPMADDWD path, because
	// the Go assembler emits EVEX (AVX512VL) encodings for VPDPBUSD on ymm
	// operands, which an AVX-VNNI-only part cannot execute.
	AVXVNNI bool
}

// HasAVX2Tier reports whether the AVX2+FMA assembly kernel tier can run.
func (f Features) HasAVX2Tier() bool { return f.AVX2 && f.FMA }

// HasAVX512Tier reports whether the AVX-512 assembly kernel tier can run.
// The kernels use foundation plus BW/VL (masked word moves for BF16 tails)
// and DQ, all present together on every AVX-512 Xeon since Skylake —
// including the paper's CLX and CPX machines.
func (f Features) HasAVX512Tier() bool {
	return f.AVX512F && f.AVX512BW && f.AVX512VL && f.AVX512DQ
}

// HasVNNITier reports whether the AVX-512 VNNI integer kernel (VPDPBUSD on
// zmm registers) can run: the full AVX-512 tier plus the VNNI extension.
func (f Features) HasVNNITier() bool { return f.HasAVX512Tier() && f.AVX512VNNI }

// VectorLanesF32 returns the widest float32 SIMD lane count the detected
// features can drive: 16 under AVX-512, 8 under AVX2, 0 when no vector
// extension beyond the architectural baseline was detected (callers decide
// what baseline to assume).
func (f Features) VectorLanesF32() int {
	switch {
	case f.HasAVX512Tier():
		return 16
	case f.HasAVX2Tier():
		return 8
	default:
		return 0
	}
}

// String renders the detected feature set compactly, e.g.
// "avx2+fma avx512[f,bw,vl,dq] bf16 vnni".
func (f Features) String() string {
	s := ""
	if f.AVX2 {
		s += "avx2"
	}
	if f.FMA {
		s += "+fma"
	}
	if f.AVX512F {
		s += " avx512[f"
		if f.AVX512BW {
			s += ",bw"
		}
		if f.AVX512VL {
			s += ",vl"
		}
		if f.AVX512DQ {
			s += ",dq"
		}
		s += "]"
	}
	if f.AVX512BF16 {
		s += " bf16"
	}
	if f.AVX512VNNI {
		s += " vnni"
	}
	if f.AVXVNNI {
		s += " avx-vnni"
	}
	if s == "" {
		return "none"
	}
	return s
}

var (
	detectOnce sync.Once
	detected   Features
)

// Detect returns the host's SIMD features. The first call probes the
// hardware; subsequent calls return the cached result.
func Detect() Features {
	detectOnce.Do(func() { detected = detect() })
	return detected
}
