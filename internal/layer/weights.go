// Package layer implements the two layer kinds of the SLIDE network with the
// paper's optimized (and deliberately de-optimized) storage layouts:
//
//   - ColLayer — the hidden layer. Its weight matrix is kept in
//     column-major order so that the sparse-input × dense-output product of
//     Algorithm 2 walks contiguous memory (§4.3.2, case 2).
//   - RowLayer — the wide output layer. Its weight matrix is kept in
//     row-major order so that the dense-input × sparse-output product of
//     Algorithm 1 reduces each active neuron to one contiguous dot product
//     (§4.3.2, case 1). By Lemma 1, the backward pass of each layer reuses
//     the same layout for the transposed product.
//
// Each layer supports the paper's three precision modes (§4.4) and both
// parameter placements (§4.1): one contiguous block per layer (optimized) or
// per-vector scattered allocations (naive SLIDE).
package layer

import (
	"fmt"

	"github.com/slide-cpu/slide/internal/mem"
)

// Precision selects the §4.4 quantization mode.
type Precision int

const (
	// FP32 trains entirely in float32 ("Without BF16" in Table 3).
	FP32 Precision = iota
	// BF16Act keeps parameters in FP32 but rounds activations to bfloat16
	// ("BF16 only for activations"): float32 arithmetic on bfloat16 values.
	BF16Act
	// BF16Both stores weights and activations in bfloat16, with FP32 ADAM
	// moments ("BF16 for both activations and weights").
	BF16Both
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case BF16Act:
		return "bf16-act"
	case BF16Both:
		return "bf16-both"
	default:
		return "unknown"
	}
}

// Placement selects the §4.1 parameter memory layout.
type Placement int

const (
	// Contiguous reserves one block per layer (optimized SLIDE).
	Contiguous Placement = iota
	// Scattered allocates every weight vector independently (naive SLIDE).
	Scattered
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case Contiguous:
		return "contiguous"
	case Scattered:
		return "scattered"
	default:
		return "unknown"
	}
}

// Activation selects the layer non-linearity.
type Activation int

const (
	// ReLU is used by the classification hidden layers.
	ReLU Activation = iota
	// Linear (identity) is used by the word2vec embedding layer.
	Linear
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Linear:
		return "linear"
	default:
		return "unknown"
	}
}

// Options configures layer construction.
type Options struct {
	Precision Precision
	Placement Placement
	// Seed drives weight initialization.
	Seed uint64
}

// vectors2D builds an nVec×vecLen float32 matrix in the requested placement.
func vectors2D(nVec, vecLen int, p Placement) [][]float32 {
	switch p {
	case Contiguous:
		views, _ := mem.Contiguous2D(nVec, vecLen)
		return views
	case Scattered:
		views, _ := mem.Scattered2D(nVec, vecLen)
		return views
	default:
		panic(fmt.Sprintf("layer: unknown placement %d", p))
	}
}
