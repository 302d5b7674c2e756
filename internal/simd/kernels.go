package simd

import "github.com/slide-cpu/slide/internal/bf16"

// Kernels is a mode-resolved function-pointer table over every kernel, and
// the only way to call one: there are no package-level kernel functions. A
// caller resolves the table once per batch with Active() (or pins a tier with
// ForMode) and invokes its entries for every row in that batch — one atomic
// mode load per stretch of work instead of one per row, the structure the
// paper's intrinsics code gets for free from compile-time dispatch, with
// SetMode kept as the Table-4 ablation switch that decides which table Active
// returns.
//
// Entries point at the mode-specific implementations directly (dotVec,
// dotScalar, the assembly wrappers, …). They do not validate operand lengths
// beyond what memory safety needs: an operand too short for the call panics
// (a slice-bounds failure or the walks' named checks), a longer one is read
// only as far as the call needs.
//
// The table has 21 entries. Rounding through bfloat16 is not one of them: it
// has one definition on every host, bf16.RoundSlice. ArgMax and the per-row
// DotU8S8 live on only because the frozen benchmark probes call them
// (ROADMAP item 1, "Then delete").
type Kernels struct {
	// Mode records which implementation set this table holds. When an
	// assembly tier is unavailable, ForMode returns a downgraded table and
	// this field names the tier actually running.
	Mode Mode

	// Primitive float32 kernels (§4.2–4.3).
	Dot      func(a, b []float32) float32
	Axpy     func(alpha float32, x, y []float32)
	Add      func(x, y []float32)
	Scale    func(alpha float32, x []float32)
	Max      func(x []float32) float32
	ArgMax   func(x []float32) int // benchmark probe simd.argmax_ns only; see argMaxScalar
	AdamStep func(w, m, v, g []float32, p AdamParams)

	// GatherArgMax is the DWTA fingerprint kernel (§4.3.3): win[b] is the
	// slot of bin b holding the largest of vals[idx[s*len(win)+b]], s in
	// [0, slots). See gatherargmax.go for the layout and the contract —
	// idx entries must be valid positions in vals; the assembly tiers do
	// not check them.
	GatherArgMax func(vals []float32, idx []int32, slots int, win []uint8)

	// Fused batch kernels (see fused.go).
	DotManyBias func(rows [][]float32, bias []float32, ids []int32, h, out []float32)
	AxpyTwo     func(gz float32, h, grad, w, dh []float32)

	// Active-set walks: one call per sample, the dense operand held in
	// registers on the assembly tiers (see walk.go). Each is bit-identical
	// to looping this table's AxpyTwo / Axpy entry over the ids.
	AxpyTwoMany func(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32)
	GatherAxpy  func(alpha []float32, ids []int32, rows [][]float32, y []float32)
	ScatterAxpy func(alpha []float32, ids []int32, x []float32, rows [][]float32)

	// Tiled walks of the exact output pass: an id list against a batch of
	// prepared activations, a register tile of samples per assembly call,
	// so each listed row is loaded once for the whole tile (see walk.go).
	// Each is bit-identical to looping this table's DotManyBias / DotU8S8
	// entry over the samples.
	DotManyBiasBatch func(rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32)
	DotManyU8S8      func(rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32)

	// Mixed-precision kernels (§4.4). bfloat16 is a storage format, not an
	// arithmetic one: WidenBF16 loads a stored row or column into float32
	// (zero-extend, shift left 16 — exact, so every tier writes the same
	// bits), and the float32 kernels above do the arithmetic on it. dst must
	// hold at least len(src) values; nothing past len(src) is written.
	// AdamStepBF16 is the one kernel that writes bfloat16.
	WidenBF16    func(dst []float32, src []bf16.BF16)
	AdamStepBF16 func(w []bf16.BF16, m, v, g []float32, p AdamParams)

	// Quantized integer kernels (serving tier, internal/quant). DotU8S8 is
	// the u8-activation x s8-weight inner product; unlike the float kernels
	// these are exact, so every tier returns the identical int32. Its walk
	// over an id list is DotManyU8S8 above.
	DotU8S8 func(a []uint8, b []int8) int32

	// The quantized tier's element-wise kernels: packing an f32 row into
	// int8 codes, and dequantizing the accumulators of contiguous rows into
	// logits (see quant8.go). Every tier returns the same bits.
	QuantizeRow8 func(w []float32, dst []int8) (scale float32, rowSum int32, finite bool)
	DequantRows8 func(acc []int32, scales []float32, rowSums []int32, bias []float32, sa float32, zp int32, out []float32)

	// ExpSum is the label head's softmax numerator (see expsum.go):
	// out[i] = float32(math.Exp(float64(x[i]-m))), and the return value is z
	// plus those float64 exps summed in index order. Every tier returns the
	// bits of that loop, which is the definition.
	ExpSum func(x []float32, m float32, out []float32, z float64) float64
}

// vectorKernels is the portable 16-lane (AVX-512 substitute) table.
var vectorKernels = Kernels{
	Mode:     Vector,
	Dot:      dotVec,
	Axpy:     axpyVec,
	Add:      addVec,
	Scale:    scaleVec,
	Max:      Max, // one implementation serves both Go modes
	ArgMax:   argMaxVec,
	AdamStep: adamVec,

	GatherArgMax: gatherArgMaxGo, // one portable form serves both Go modes

	DotManyBias: dotManyBiasVec,
	AxpyTwo:     axpyTwoUnfusedVec, // fused walk loses under the Go compiler

	AxpyTwoMany: axpyTwoManyVec,
	GatherAxpy:  gatherAxpyVec,
	ScatterAxpy: scatterAxpyVec,

	DotManyBiasBatch: dotManyBiasBatchVec,
	DotManyU8S8:      dotManyU8S8Vec,

	WidenBF16:    widenBF16Go, // exact: one definition serves every Go mode
	AdamStepBF16: adamStepBF16,

	DotU8S8: dotU8S8Vec,

	QuantizeRow8: quantizeRow8, // the definitions serve both Go modes
	DequantRows8: dequantRows8,

	ExpSum: expSum, // the definition serves both Go modes
}

// scalarKernels is the naive one-element-at-a-time table (the "-no-avx"
// ablation build).
var scalarKernels = Kernels{
	Mode:     Scalar,
	Dot:      dotScalar,
	Axpy:     axpyScalar,
	Add:      addScalar,
	Scale:    scaleScalar,
	Max:      Max,
	ArgMax:   argMaxScalar,
	AdamStep: adamScalar,

	GatherArgMax: gatherArgMaxGo,

	DotManyBias: dotManyBiasScalar,
	AxpyTwo:     axpyTwoUnfusedScalar,

	AxpyTwoMany: axpyTwoManyScalar,
	GatherAxpy:  gatherAxpyScalar,
	ScatterAxpy: scatterAxpyScalar,

	DotManyBiasBatch: dotManyBiasBatchScalar,
	DotManyU8S8:      dotManyU8S8Scalar,

	WidenBF16:    widenBF16Go,
	AdamStepBF16: adamStepBF16, // element-local math: one impl serves both modes

	DotU8S8: dotU8S8Scalar,

	QuantizeRow8: quantizeRow8,
	DequantRows8: dequantRows8,

	ExpSum: expSum,
}

// avx2Kernels and avx512Kernels are the assembly tiers. They default to a
// copy of the portable table (self-describing as Mode: Vector); on amd64
// hosts whose CPUID reports the tier, the dispatch init overwrites them with
// the assembly implementations (see dispatch_amd64.go).
var (
	avx2Kernels   = vectorKernels
	avx512Kernels = vectorKernels
)

// Active resolves the current kernel mode with a single atomic load and
// returns the matching table. Call it once per batch (or once per otherwise
// long-lived stretch of work) and use the returned table for every kernel
// invocation in that stretch; kernels already resolved keep their
// implementation if SetMode flips mid-flight, the same in-flight contract
// SetMode has always had.
func Active() *Kernels {
	switch Mode(mode.Load()) {
	case Scalar:
		return &scalarKernels
	case AVX2:
		return &avx2Kernels
	case AVX512:
		return &avx512Kernels
	default:
		return &vectorKernels
	}
}

// ForMode returns the kernel table for an explicit mode, independent of the
// package-level switch (ablation harnesses, equivalence tests). Unsupported
// assembly tiers downgrade like SetMode does; check the returned table's
// Mode field for the tier actually selected.
func ForMode(m Mode) *Kernels {
	switch clampMode(m) {
	case Scalar:
		return &scalarKernels
	case AVX2:
		return &avx2Kernels
	case AVX512:
		return &avx512Kernels
	default:
		return &vectorKernels
	}
}
