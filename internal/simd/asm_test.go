package simd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
)

// The assembly-tier equivalence suite. Every kernel in every available mode
// is compared against the scalar reference over the boundary lengths
// (0/1/15/16/17/31/32/33/65, plus longer stretches) and at unaligned base
// offsets (the arena guarantees 64-byte alignment of backing blocks, but
// kernels must accept any offset).
//
// Tolerance policy (see DESIGN.md "Native kernel backend"):
//   - Elementwise kernels (Axpy, AxpyTwo, Add, Scale, AdamStep, AxpyBF16,
//     PackBF16, RoundBF16) must be BIT-IDENTICAL across tiers: the
//     assembly uses the same two-rounding mul/add schedule as the Go code.
//   - Reductions (Dot, Sum, DotBF16*, DotManyBias*) may differ by summation
//     order and FMA contraction; they are compared against a float64
//     reference with a tolerance scaled to the sum of absolute products.
//   - Max is order-insensitive and must be exact (NaN inputs excluded).

// testLengths are the boundary lengths from the issue plus deeper blocks
// that exercise the unrolled 32/64-element loops and their step-down paths.
var testLengths = []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 128, 129, 255, 1024}

// asmModes returns every mode whose table differs from the scalar reference,
// including downgraded tables (so the suite still runs the portable tier on
// hosts without the assembly).
func asmModes(t *testing.T) []Mode {
	t.Helper()
	modes := []Mode{Vector}
	for _, m := range []Mode{AVX2, AVX512} {
		if Supported(m) {
			modes = append(modes, m)
		} else {
			t.Logf("mode %s unsupported on this host (GOARCH=%s), testing downgrade only", m, runtime.GOARCH)
		}
	}
	return modes
}

// offsetSlice returns a slice of length n whose backing base is offset by
// off elements from its allocation start (unaligned vector loads).
func offsetSlice(rng *rand.Rand, n, off int) []float32 {
	buf := randSlice(rng, n+off)
	return buf[off : off+n : off+n]
}

// dotRef computes the float64 reference and the |a_i*b_i| magnitude scale.
func dotRef(a, b []float32) (ref, scale float64) {
	for i := range a {
		p := float64(a[i]) * float64(b[i])
		ref += p
		scale += math.Abs(p)
	}
	return ref, scale
}

// checkReduction asserts |got-ref| <= tol*(1+scale): reductions across tiers
// agree to a few float32 ULPs of the accumulated magnitude.
func checkReduction(t *testing.T, name string, got float32, ref, scale float64) {
	t.Helper()
	const tol = 1e-5
	if diff := math.Abs(float64(got) - ref); diff > tol*(1+scale) {
		t.Errorf("%s: got %g, reference %g (diff %g, scale %g)", name, got, ref, diff, scale)
	}
}

func TestActiveResolvesBestTier(t *testing.T) {
	// Acceptance gate: on a host with an assembly tier, the package must
	// auto-select it at startup (the env knob can still force another mode,
	// which the suite respects so forced-mode CI lanes stay meaningful).
	cur := CurrentMode()
	if forced := forcedEnvMode(); forced >= 0 {
		if cur != forced {
			t.Errorf("SLIDE_KERNEL_MODE forced %s but startup mode is %s", forced, cur)
		}
	} else if cur != Best() {
		t.Errorf("startup mode %s, want Best() = %s", cur, Best())
	}
	if Active().Mode != cur {
		t.Errorf("Active().Mode = %s, CurrentMode = %s", Active().Mode, cur)
	}
}

func TestSupportedAndClamp(t *testing.T) {
	if !Supported(Scalar) || !Supported(Vector) {
		t.Fatal("Go tiers must always be supported")
	}
	if Supported(Mode(99)) {
		t.Error("unknown mode reported as supported")
	}
	for _, m := range []Mode{Scalar, Vector, AVX2, AVX512} {
		got := ForMode(m).Mode
		if Supported(m) && got != m {
			t.Errorf("ForMode(%s).Mode = %s", m, got)
		}
		if !Supported(m) && (got == AVX2 || got == AVX512) && !Supported(got) {
			t.Errorf("ForMode(%s) returned unsupported tier %s", m, got)
		}
	}
	// Best is supported and at least Vector.
	if b := Best(); !Supported(b) || b == Scalar {
		t.Errorf("Best() = %s", b)
	}
}

func TestModeStrings(t *testing.T) {
	if AVX2.String() != "avx2" || AVX512.String() != "avx512" {
		t.Error("assembly tier Mode.String values wrong")
	}
}

func TestDotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			for _, off := range []int{0, 1, 3} {
				a := offsetSlice(rng, n, off)
				b := offsetSlice(rng, n, off)
				ref, scale := dotRef(a, b)
				checkReduction(t, fmt.Sprintf("%s Dot n=%d off=%d", m, n, off), ks.Dot(a, b), ref, scale)
			}
		}
	}
}

func TestMaxEquivalenceExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			if n == 0 {
				continue
			}
			for _, off := range []int{0, 2} {
				x := offsetSlice(rng, n, off)
				want := Max(x)
				if got := ks.Max(x); got != want {
					t.Errorf("%s Max n=%d off=%d: got %g want %g", m, n, off, got, want)
				}
			}
		}
		// All-negative and -Inf-heavy inputs (the DWTA gather fills missing
		// slots with -Inf).
		neg := []float32{-5, -4, -3.5, -9, -1.25, -8, -7, -6, -2, -10, -11, -12, -13, -14, -15, -16, -0.5}
		if got := ks.Max(neg); got != -0.5 {
			t.Errorf("%s Max all-negative: got %g", m, got)
		}
		inf := make([]float32, 40)
		for i := range inf {
			inf[i] = float32(math.Inf(-1))
		}
		inf[37] = -2
		if got := ks.Max(inf); got != -2 {
			t.Errorf("%s Max -Inf fill: got %g", m, got)
		}
	}
}

// checkExact asserts two float32 slices are bit-identical.
func checkExact(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("%s: index %d got %g (%#x) want %g (%#x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			return
		}
	}
}

func TestAxpyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			for _, off := range []int{0, 1} {
				x := offsetSlice(rng, n, off)
				y0 := offsetSlice(rng, n, off)
				want := append([]float32(nil), y0...)
				axpyScalar(0.37, x, want)
				got := append([]float32(nil), y0...)
				ks.Axpy(0.37, x, got)
				checkExact(t, fmt.Sprintf("%s Axpy n=%d off=%d", m, n, off), got, want)
			}
		}
	}
}

func TestAddScaleBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			x := offsetSlice(rng, n, 1)
			y0 := offsetSlice(rng, n, 1)

			want := append([]float32(nil), y0...)
			addScalar(x, want)
			got := append([]float32(nil), y0...)
			ks.Add(x, got)
			checkExact(t, fmt.Sprintf("%s Add n=%d", m, n), got, want)

			wantS := append([]float32(nil), x...)
			scaleScalar(-1.75, wantS)
			gotS := append([]float32(nil), x...)
			ks.Scale(-1.75, gotS)
			checkExact(t, fmt.Sprintf("%s Scale n=%d", m, n), gotS, wantS)
		}
	}
}

func TestAxpyTwoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			h := offsetSlice(rng, n, 1)
			w := offsetSlice(rng, n, 1)
			grad0 := offsetSlice(rng, n, 1)
			dh0 := offsetSlice(rng, n, 1)

			wantG := append([]float32(nil), grad0...)
			wantD := append([]float32(nil), dh0...)
			axpyTwoUnfusedScalar(0.81, h, wantG, w, wantD)

			gotG := append([]float32(nil), grad0...)
			gotD := append([]float32(nil), dh0...)
			ks.AxpyTwo(0.81, h, gotG, w, gotD)
			checkExact(t, fmt.Sprintf("%s AxpyTwo grad n=%d", m, n), gotG, wantG)
			checkExact(t, fmt.Sprintf("%s AxpyTwo dh n=%d", m, n), gotD, wantD)
		}
	}
}

func adamInputs(rng *rand.Rand, n int) (w, m, v, g []float32) {
	w = randSlice(rng, n)
	m = randSlice(rng, n)
	v = randSlice(rng, n)
	g = randSlice(rng, n)
	for i := range v {
		v[i] = float32(math.Abs(float64(v[i]))) // second moment is non-negative
	}
	return
}

func TestAdamStepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	p := NewAdamParams(1e-3, 0.9, 0.999, 1e-8, 7)
	for _, mode := range asmModes(t) {
		ks := ForMode(mode)
		for _, n := range testLengths {
			w0, m0, v0, g0 := adamInputs(rng, n)
			wW := append([]float32(nil), w0...)
			wM := append([]float32(nil), m0...)
			wV := append([]float32(nil), v0...)
			gW := append([]float32(nil), w0...)
			gM := append([]float32(nil), m0...)
			gV := append([]float32(nil), v0...)
			gG := append([]float32(nil), g0...)
			name := fmt.Sprintf("%s AdamStep n=%d", mode, n)
			adamScalar(wW, wM, wV, g0, p)
			ks.AdamStep(gW, gM, gV, gG, p)
			checkExact(t, name+" w", gW, wW)
			checkExact(t, name+" m", gM, wM)
			checkExact(t, name+" v", gV, wV)
			checkExact(t, name+" g", gG, g0) // the gradient is read, never written
		}
	}
}

func TestDotManyBiasEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	const nRows, dim = 64, 65 // odd dim: every row dot takes the tail path
	rows := make([][]float32, nRows)
	rowsBF := make([][]bf16.BF16, nRows)
	for i := range rows {
		rows[i] = randSlice(rng, dim)
		rowsBF[i] = bf16.FromSlice(rows[i])
	}
	bias := randSlice(rng, nRows)
	h := randSlice(rng, dim)
	hBF := bf16.FromSlice(h)
	ids := make([]int32, 33)
	for i := range ids {
		ids[i] = int32(rng.IntN(nRows))
	}
	ref := make([]float32, len(ids))
	dotManyBiasScalar(rows, bias, ids, h, ref)

	for _, m := range asmModes(t) {
		ks := ForMode(m)
		out := make([]float32, len(ids))
		ks.DotManyBias(rows, bias, ids, h, out)
		for k := range ref {
			rf, scale := dotRef(rows[ids[k]], h)
			checkReduction(t, fmt.Sprintf("%s DotManyBias k=%d", m, k), out[k], rf+float64(bias[ids[k]]), scale)
		}

		outBF := make([]float32, len(ids))
		ks.DotManyBiasBF16Act(rows, bias, ids, hBF, outBF)
		refBF := make([]float32, len(ids))
		dotManyBiasBF16ActScalar(rows, bias, ids, hBF, refBF)
		for k := range refBF {
			if !approxEqual(float64(outBF[k]), float64(refBF[k]), 1e-4) {
				t.Errorf("%s DotManyBiasBF16Act k=%d: got %g want %g", m, k, outBF[k], refBF[k])
			}
		}

		outB := make([]float32, len(ids))
		ks.DotManyBiasBF16(rowsBF, bias, ids, hBF, outB)
		refB := make([]float32, len(ids))
		dotManyBiasBF16Scalar(rowsBF, bias, ids, hBF, refB)
		for k := range refB {
			if !approxEqual(float64(outB[k]), float64(refB[k]), 1e-4) {
				t.Errorf("%s DotManyBiasBF16 k=%d: got %g want %g", m, k, outB[k], refB[k])
			}
		}
	}
}

// The active-set walks (DotManyBias, AxpyTwoMany, GatherAxpy, ScatterAxpy)
// are defined as "the same tier's per-row kernel once per id, in list
// order", so they are compared exactly, tier by tier, with that loop — over
// widths on both sides of every register-residency boundary (64-column
// groups up to 192 / 256 columns, 16-column blocks, masked or scalar tails),
// list lengths from empty to longer than the vector count (so ids repeat,
// and a vector hit twice must have seen its first update), unaligned bases
// and both placements.
var (
	walkWidths = []int{1, 7, 16, 63, 64, 65, 100, 128, 129, 192, 200, 208, 255, 256, 257, 300, 320, 333, 512, 520}
	walkLists  = []int{0, 1, 2, 137}
)

// walkVectors returns nVec vectors of width n whose bases sit at odd element
// offsets: views into one block (contiguous placement) or one allocation
// each (scattered).
func walkVectors(rng *rand.Rand, nVec, n int, scattered bool) [][]float32 {
	vecs := make([][]float32, nVec)
	if scattered {
		for i := range vecs {
			vecs[i] = offsetSlice(rng, n, 1+i%5)
		}
		return vecs
	}
	block := offsetSlice(rng, nVec*n, 3)
	for i := range vecs {
		vecs[i] = block[i*n : (i+1)*n : (i+1)*n]
	}
	return vecs
}

func cloneVectors(src [][]float32) [][]float32 {
	dst := make([][]float32, len(src))
	for i, v := range src {
		dst[i] = append([]float32(nil), v...)
	}
	return dst
}

// walkIDs draws a list over nVec vectors; from the third entry on, every
// fifth id repeats its predecessor, so back-to-back revisits are covered as
// well as distant ones.
func walkIDs(rng *rand.Rand, nIDs, nVec int) []int32 {
	ids := make([]int32, nIDs)
	for k := range ids {
		ids[k] = int32(rng.IntN(nVec))
		if k >= 2 && k%5 == 0 {
			ids[k] = ids[k-1]
		}
	}
	return ids
}

func checkExactVectors(t *testing.T, name string, got, want [][]float32) {
	t.Helper()
	for i := range want {
		checkExact(t, fmt.Sprintf("%s vector %d", name, i), got[i], want[i])
	}
}

func TestActiveSetWalksBitIdenticalToPerRow(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	const nVec = 23
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for _, n := range walkWidths {
			for _, nIDs := range walkLists {
				for _, scattered := range []bool{false, true} {
					name := fmt.Sprintf("%s n=%d ids=%d scattered=%v", m, n, nIDs, scattered)
					ids := walkIDs(rng, nIDs, nVec)
					coef := randSlice(rng, nIDs)
					h := offsetSlice(rng, n, 1)
					dh0 := offsetSlice(rng, n, 2)
					w := walkVectors(rng, nVec, n, scattered)
					grad0 := walkVectors(rng, nVec, n, scattered)
					bias := randSlice(rng, nVec)

					out := make([]float32, nIDs)
					ks.DotManyBias(w, bias, ids, h, out)
					want := make([]float32, nIDs)
					for k, id := range ids {
						want[k] = ks.Dot(w[id], h) + bias[id]
					}
					checkExact(t, name+" DotManyBias", out, want)

					grad, dh := cloneVectors(grad0), offsetSlice(rng, n, 2)
					copy(dh, dh0)
					ks.AxpyTwoMany(coef, ids, h, grad, w, dh)
					wantGrad, wantDh := cloneVectors(grad0), append([]float32(nil), dh0...)
					for k, id := range ids {
						ks.AxpyTwo(coef[k], h, wantGrad[id], w[id], wantDh)
					}
					checkExactVectors(t, name+" AxpyTwoMany grad", grad, wantGrad)
					checkExact(t, name+" AxpyTwoMany dh", dh, wantDh)

					y := offsetSlice(rng, n, 2)
					copy(y, dh0)
					ks.GatherAxpy(coef, ids, w, y)
					wantY := append([]float32(nil), dh0...)
					for k, id := range ids {
						ks.Axpy(coef[k], w[id], wantY)
					}
					checkExact(t, name+" GatherAxpy", y, wantY)

					rows := cloneVectors(grad0)
					ks.ScatterAxpy(coef, ids, h, rows)
					wantRows := cloneVectors(grad0)
					for k, id := range ids {
						ks.Axpy(coef[k], h, wantRows[id])
					}
					checkExactVectors(t, name+" ScatterAxpy", rows, wantRows)
				}
			}
		}
	}
}

// The tiled walks (DotManyBiasBatch, DotManyU8S8) are defined as "the same
// tier's per-row kernel once per (id, sample)", and compared exactly with
// that loop: widths on both sides of every block and residency boundary of
// either routine (16/64 float columns; 16/32/64 bytes, 256 resident), sample
// counts below, at and past every tile width, lists from empty to longer
// than the row count, unaligned bases on every operand, both placements.
var (
	tileWidths  = []int{1, 7, 16, 63, 64, 65, 100, 128, 129, 192, 200, 255, 256, 257, 300, 320, 520}
	tileSamples = []int{1, 2, 3, 4, 5, 8, 9}
)

// quantVectors is walkVectors for the integer walk: nVec rows of n weights
// in [-127,127] at odd byte offsets, views into one block or one allocation
// each.
func quantVectors(rng *rand.Rand, nVec, n int, scattered bool) [][]int8 {
	fill := func(n, off int) []int8 {
		buf := make([]int8, n+off)
		for i := range buf {
			buf[i] = int8(rng.IntN(255) - 127)
		}
		return buf[off : off+n : off+n]
	}
	vecs := make([][]int8, nVec)
	if scattered {
		for i := range vecs {
			vecs[i] = fill(n, 1+i%5)
		}
		return vecs
	}
	block := fill(nVec*n, 3)
	for i := range vecs {
		vecs[i] = block[i*n : (i+1)*n : (i+1)*n]
	}
	return vecs
}

// quantActs returns n activations in DotU8S8's [0,127] at byte offset off.
func quantActs(rng *rand.Rand, n, off int) []uint8 {
	buf := make([]uint8, n+off)
	for i := range buf {
		buf[i] = uint8(rng.IntN(128))
	}
	return buf[off : off+n : off+n]
}

func TestTiledWalksBitIdenticalToPerRow(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	const nVec = 23
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for _, n := range tileWidths {
			for _, nS := range tileSamples {
				for _, nIDs := range walkLists {
					for _, scattered := range []bool{false, true} {
						name := fmt.Sprintf("%s n=%d samples=%d ids=%d scattered=%v", m, n, nS, nIDs, scattered)
						ids := walkIDs(rng, nIDs, nVec)

						w, bias := walkVectors(rng, nVec, n, scattered), randSlice(rng, nVec)
						hs, outs := make([][]float32, nS), make([][]float32, nS)
						for s := range hs {
							hs[s], outs[s] = offsetSlice(rng, n, 1+s%3), offsetSlice(rng, nIDs, s%2)
						}
						ks.DotManyBiasBatch(w, bias, ids, hs, outs)
						for s := range hs {
							want := make([]float32, nIDs)
							for k, id := range ids {
								want[k] = ks.Dot(w[id], hs[s]) + bias[id]
							}
							checkExact(t, fmt.Sprintf("%s DotManyBiasBatch sample %d", name, s), outs[s], want)
						}

						q := quantVectors(rng, nVec, n, scattered)
						qas, accs := make([][]uint8, nS), make([][]int32, nS)
						for s := range qas {
							qas[s], accs[s] = quantActs(rng, n, 1+s%3), make([]int32, nIDs+s%2)[s%2:]
						}
						ks.DotManyU8S8(q, ids, qas, accs)
						for s := range qas {
							for k, id := range ids {
								if want := ks.DotU8S8(qas[s], q[id]); accs[s][k] != want {
									t.Errorf("%s DotManyU8S8 sample %d: index %d got %d want %d", name, s, k, accs[s][k], want)
									break
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestBF16DotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			a := bf16.FromSlice(offsetSlice(rng, n, 1))
			b := offsetSlice(rng, n, 1)
			bBF := bf16.FromSlice(b)

			var ref, scale float64
			for i := range a {
				p := float64(a[i].Float32()) * float64(b[i])
				ref += p
				scale += math.Abs(p)
			}
			checkReduction(t, fmt.Sprintf("%s DotBF16F32 n=%d", m, n), ks.DotBF16F32(a, b), ref, scale)

			ref, scale = 0, 0
			for i := range a {
				p := float64(a[i].Float32()) * float64(bBF[i].Float32())
				ref += p
				scale += math.Abs(p)
			}
			checkReduction(t, fmt.Sprintf("%s DotBF16 n=%d", m, n), ks.DotBF16(a, bBF), ref, scale)
		}
	}
}

func TestAxpyBF16BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			x := bf16.FromSlice(offsetSlice(rng, n, 1))
			y0 := offsetSlice(rng, n, 1)
			want := append([]float32(nil), y0...)
			axpyBF16Scalar(1.3, x, want)
			got := append([]float32(nil), y0...)
			ks.AxpyBF16(1.3, x, got)
			checkExact(t, fmt.Sprintf("%s AxpyBF16 n=%d", m, n), got, want)
		}
	}
}

func TestPackRoundBF16Equivalence(t *testing.T) {
	// Inputs stay in the normal float32 range: the hardware converter
	// (VCVTNEPS2BF16) flushes subnormal inputs to zero, a documented
	// divergence from the software rounder. Normal values, zeros, infinities
	// and NaNs convert identically.
	rng := rand.New(rand.NewPCG(20, 1))
	for _, m := range asmModes(t) {
		ks := ForMode(m)
		for _, n := range testLengths {
			src := offsetSlice(rng, n, 1)
			if n > 4 {
				src[0] = 0
				src[1] = float32(math.Inf(1))
				src[2] = float32(math.Inf(-1))
				src[3] = 3.39e38 // near MaxFloat32: rounds up to +Inf in bf16
			}
			want := make([]bf16.BF16, n)
			bf16.Convert(want, src)
			got := make([]bf16.BF16, n)
			ks.PackBF16(got, src)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s PackBF16 n=%d i=%d: got %#x want %#x (src %g)", m, n, i, got[i], want[i], src[i])
					break
				}
			}

			wantR := append([]float32(nil), src...)
			bf16.RoundSlice(wantR)
			gotR := append([]float32(nil), src...)
			ks.RoundBF16(gotR)
			checkExact(t, fmt.Sprintf("%s RoundBF16 n=%d", m, n), gotR, wantR)
		}
	}
}

func TestPackBF16NaNQuieting(t *testing.T) {
	// NaN payloads survive truncation with the quiet bit set, on every tier.
	src := []float32{math.Float32frombits(0x7FC01234), math.Float32frombits(0xFF800001), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	want := make([]bf16.BF16, len(src))
	bf16.Convert(want, src)
	for _, m := range asmModes(t) {
		got := make([]bf16.BF16, len(src))
		ForMode(m).PackBF16(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s PackBF16 NaN i=%d: got %#x want %#x", m, i, got[i], want[i])
			}
		}
	}
}

// FuzzDotModes cross-checks every available tier's Dot against the float64
// reference on arbitrary inputs.
func FuzzDotModes(f *testing.F) {
	f.Add(uint64(1), 17)
	f.Add(uint64(42), 129)
	f.Add(uint64(7), 1)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		a := randSlice(rng, n)
		b := randSlice(rng, n)
		ref, scale := dotRef(a, b)
		for _, m := range []Mode{Vector, AVX2, AVX512} {
			checkReduction(t, fmt.Sprintf("fuzz %s Dot n=%d", m, n), ForMode(m).Dot(a, b), ref, scale)
		}
	})
}

// FuzzAdamModes cross-checks the fused optimizer bit-identically on
// arbitrary shapes and hyperparameters.
func FuzzAdamModes(f *testing.F) {
	f.Add(uint64(3), 33, int64(5))
	f.Fuzz(func(t *testing.T, seed uint64, n int, step int64) {
		if n < 0 || n > 2048 || step < 1 || step > 1e6 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 5))
		w0, m0, v0, g0 := adamInputs(rng, n)
		p := NewAdamParams(1e-3, 0.9, 0.999, 1e-8, step)
		wW := append([]float32(nil), w0...)
		wM := append([]float32(nil), m0...)
		wV := append([]float32(nil), v0...)
		adamScalar(wW, wM, wV, g0, p)
		for _, mode := range []Mode{Vector, AVX2, AVX512} {
			gW := append([]float32(nil), w0...)
			gM := append([]float32(nil), m0...)
			gV := append([]float32(nil), v0...)
			gG := append([]float32(nil), g0...)
			ForMode(mode).AdamStep(gW, gM, gV, gG, p)
			name := fmt.Sprintf("fuzz %s AdamStep n=%d", mode, n)
			checkExact(t, name+" w", gW, wW)
			checkExact(t, name+" m", gM, wM)
			checkExact(t, name+" v", gV, wV)
			checkExact(t, name+" g", gG, g0)
		}
	})
}

// gatherArgMaxRef is the oracle for GatherArgMax: the bin-by-bin algorithm
// DWTA used before the kernel existed — gather one bin's slots into a row,
// then the scalar arg-max.
func gatherArgMaxRef(vals []float32, idx []int32, slots int, win []uint8) {
	nbins := len(win)
	bin := make([]float32, slots)
	for b := range win {
		for s := range bin {
			bin[s] = vals[idx[s*nbins+b]]
		}
		win[b] = uint8(argMaxScalar(bin))
	}
}

// gatherArgMaxVals fills vals with one of the input families the DWTA path
// sees (and two it should not, NaN and Inf, whose handling is still pinned).
func gatherArgMaxVals(rng *rand.Rand, kind string, vals []float32) {
	for i := range vals {
		v := float32(rng.NormFloat64())
		switch kind {
		case "relu": // >= 50% exact zeros: ties must go to the lowest slot
			if v < 0 || rng.IntN(4) == 0 {
				v = 0
			}
		case "equal":
			v = 1.5
		case "nan":
			if rng.IntN(3) == 0 {
				v = float32(math.NaN())
			}
		case "inf":
			switch rng.IntN(4) {
			case 0:
				v = float32(math.Inf(1))
			case 1:
				v = float32(math.Inf(-1))
			}
		}
		vals[i] = v
	}
}

// checkGatherArgMaxTiers runs every tier on one input at the given element
// offsets into oversized backing arrays and demands the oracle's winners,
// byte for byte, with the guard bytes around win untouched.
func checkGatherArgMaxTiers(t *testing.T, name string, vals []float32, idx []int32, slots, nbins, off int) {
	t.Helper()
	want := make([]uint8, nbins)
	gatherArgMaxRef(vals, idx, slots, want)
	valsOff := append(make([]float32, off), vals...)[off:]
	idxOff := append(make([]int32, off), idx...)[off:]
	for _, m := range []Mode{Scalar, Vector, AVX2, AVX512} {
		buf := make([]uint8, off+nbins+40)
		for i := range buf {
			buf[i] = 0xA5
		}
		win := buf[off : off+nbins : off+nbins]
		ForMode(m).GatherArgMax(valsOff, idxOff, slots, win)
		for b := range want {
			if win[b] != want[b] {
				t.Fatalf("%s %s: bin %d winner %d, want %d", name, m, b, win[b], want[b])
			}
		}
		for i, g := range buf {
			if (i < off || i >= off+nbins) && g != 0xA5 {
				t.Fatalf("%s %s: wrote outside win at byte %d", name, m, i-off)
			}
		}
	}
}

func TestGatherArgMaxTiersIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	binCounts := []int{128, 300}
	for n := 0; n <= 33; n++ { // every AVX2 tail and AVX-512 mask length
		binCounts = append(binCounts, n)
	}
	for _, slots := range []int{1, 2, 3, 4, 8, 16, 256} {
		for _, nbins := range binCounts {
			for _, kind := range []string{"random", "relu", "equal", "nan", "inf"} {
				vals := make([]float32, 1+rng.IntN(200))
				gatherArgMaxVals(rng, kind, vals)
				idx := make([]int32, slots*nbins)
				for i := range idx {
					idx[i] = int32(rng.IntN(len(vals)))
				}
				name := fmt.Sprintf("slots=%d nbins=%d %s", slots, nbins, kind)
				checkGatherArgMaxTiers(t, name, vals, idx, slots, nbins, (slots+nbins)%4)
			}
		}
	}
}

func TestGatherArgMaxContractPanics(t *testing.T) {
	vals := make([]float32, 8)
	for _, m := range []Mode{Scalar, Vector, AVX2, AVX512} {
		ks := ForMode(m)
		for name, call := range map[string]func(){
			"zero slots":     func() { ks.GatherArgMax(vals, nil, 0, make([]uint8, 4)) },
			"slots over 256": func() { ks.GatherArgMax(vals, make([]int32, 257*2), 257, make([]uint8, 2)) },
			"short idx":      func() { ks.GatherArgMax(vals, make([]int32, 31), 8, make([]uint8, 4)) },
			"long idx":       func() { ks.GatherArgMax(vals, make([]int32, 33), 8, make([]uint8, 4)) },
			"empty vals":     func() { ks.GatherArgMax(nil, make([]int32, 8), 2, make([]uint8, 4)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s GatherArgMax with %s did not panic", m, name)
					}
				}()
				call()
			}()
		}
	}
}

// FuzzGatherArgMax cross-checks every tier against the oracle on arbitrary
// shapes; raw supplies float32 bit patterns, so NaN payloads, infinities and
// denormals all reach the compare.
func FuzzGatherArgMax(f *testing.F) {
	f.Add(uint64(1), 17, 8, []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(uint64(2), 16, 4, []byte{})
	f.Add(uint64(3), 33, 256, []byte{1, 0, 0, 0, 1, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, nbins, slots int, raw []byte) {
		if nbins < 0 || nbins > 600 || slots < 1 || slots > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 17))
		vals := randSlice(rng, 1+len(raw)/4+rng.IntN(64))
		for i := 0; i+4 <= len(raw); i += 4 {
			vals[i/4] = math.Float32frombits(uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24)
		}
		idx := make([]int32, slots*nbins)
		for i := range idx {
			idx[i] = int32(rng.IntN(len(vals)))
		}
		checkGatherArgMaxTiers(t, fmt.Sprintf("fuzz nbins=%d slots=%d", nbins, slots), vals, idx, slots, nbins, int(seed%4))
	})
}

// forcedEnvMode reports the mode forced by SLIDE_KERNEL_MODE, or -1.
func forcedEnvMode() Mode {
	switch envMode := envKernelMode(); envMode {
	case "scalar":
		return Scalar
	case "vector", "portable":
		return Vector
	case "avx2":
		return clampMode(AVX2)
	case "avx512":
		return clampMode(AVX512)
	}
	return Mode(-1)
}
