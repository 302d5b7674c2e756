//go:build !amd64

package simd

// Non-amd64 builds have no assembly tiers: the portable Vector kernels are
// the vectorized reference everywhere. clamp downgrades AVX512/AVX2
// requests to Vector, and the avx tables keep their default (a copy of the
// portable table) from kernels.go.
const (
	haveAVX2   = false
	haveAVX512 = false
)
