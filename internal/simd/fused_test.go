package simd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// fusedLens are the equivalence-test lengths: empty, sub-width, one lane shy
// of a block, exact blocks, and block+remainder tails.
var fusedLens = []int{0, 1, 15, 16, 17, 33}

func randRows(rng *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = randSlice(rng, dim)
	}
	return rows
}

// TestDotManyBiasMatchesScalarReference checks the fused forward kernel
// against per-row scalar dots in both modes.
func TestDotManyBiasMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			for _, dim := range fusedLens {
				const nRows = 7
				rows := randRows(rng, nRows, dim)
				bias := randSlice(rng, nRows)
				h := randSlice(rng, dim)
				ids := []int32{3, 0, 6, 3, 1} // repeats allowed
				out := make([]float32, len(ids))

				Active().DotManyBias(rows, bias, ids, h, out)
				for k, id := range ids {
					want := dotScalar(rows[id], h) + bias[id]
					if !approxEqual(float64(out[k]), float64(want), 1e-4) {
						t.Errorf("%v dim=%d: DotManyBias[%d]=%g want %g", m, dim, k, out[k], want)
					}
				}
			}
		})
	}
}

func TestDotManyBiasPanics(t *testing.T) {
	rows := [][]float32{{1, 2}, {3, 4}}
	bias := []float32{0, 0}
	h := []float32{1, 1}
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for name, f := range map[string]func(){
			"short out":    func() { ks.DotManyBias(rows, bias, []int32{0, 1}, h, make([]float32, 1)) },
			"row mismatch": func() { ks.DotManyBias(rows, bias, []int32{0}, []float32{1}, make([]float32, 1)) },
		} {
			expectPanic(t, m.String()+" "+name, f)
		}
	}
}

// TestActiveSetWalkContracts: on every tier the walks keep the per-row
// loops' safety — a short coefficient list or dense operand, an id outside
// the vector count (either side), a vector of the wrong length all panic —
// the ids ahead of an offender are still applied, and an empty list touches
// nothing.
func TestActiveSetWalkContracts(t *testing.T) {
	const n = 70 // one resident group and a tail on both assembly tiers
	rng := rand.New(rand.NewPCG(35, 36))
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		vecs := randRows(rng, 4, n)
		grad := randRows(rng, 4, n)
		ragged := randRows(rng, 4, n)
		ragged[2] = ragged[2][:n-1]
		bias := randSlice(rng, 4)
		h, dh := randSlice(rng, n), randSlice(rng, n)
		coef := randSlice(rng, 3)
		out := make([]float32, 3)
		ok, bad, neg, rag := []int32{1, 0, 3}, []int32{1, 4, 0}, []int32{1, -1, 0}, []int32{1, 2, 0}

		// The tiled walks' operands: five samples, so the list is walked in
		// more than one tile on every tier.
		const nS = 5
		hs, outs := make([][]float32, nS), make([][]float32, nS)
		qas, accs := make([][]uint8, nS), make([][]int32, nS)
		for s := range hs {
			hs[s], outs[s] = randSlice(rng, n), make([]float32, 3)
			qas[s], accs[s] = quantActs(rng, n, 0), make([]int32, 3)
		}
		qvecs, qragged := quantVectors(rng, 4, n, false), quantVectors(rng, 4, n, true)
		qragged[2] = qragged[2][:n-1]
		shortOuts := append([][]float32{}, outs...)
		shortOuts[4] = shortOuts[4][:2]
		shortAccs := append([][]int32{}, accs...)
		shortAccs[4] = shortAccs[4][:2]
		unevenHs := append([][]float32{}, hs...)
		unevenHs[1] = unevenHs[1][:n-1]
		unevenQas := append([][]uint8{}, qas...)
		unevenQas[1] = unevenQas[1][:n-1]

		for name, f := range map[string]func(){
			"DotManyBias id out of range": func() { ks.DotManyBias(vecs, bias, bad, h, out) },
			"DotManyBias negative id":     func() { ks.DotManyBias(vecs, bias, neg, h, out) },
			"DotManyBias ragged row":      func() { ks.DotManyBias(ragged, bias, rag, h, out) },
			"DotManyBias short bias":      func() { ks.DotManyBias(vecs, bias[:3], ok, h, out) },

			"DotManyBiasBatch id out of range":    func() { ks.DotManyBiasBatch(vecs, bias, bad, hs, outs) },
			"DotManyBiasBatch negative id":        func() { ks.DotManyBiasBatch(vecs, bias, neg, hs, outs) },
			"DotManyBiasBatch ragged row":         func() { ks.DotManyBiasBatch(ragged, bias, rag, hs, outs) },
			"DotManyBiasBatch short bias":         func() { ks.DotManyBiasBatch(vecs, bias[:3], ok, hs, outs) },
			"DotManyBiasBatch short out":          func() { ks.DotManyBiasBatch(vecs, bias, ok, hs, shortOuts) },
			"DotManyBiasBatch fewer outs":         func() { ks.DotManyBiasBatch(vecs, bias, ok, hs, outs[:4]) },
			"DotManyBiasBatch uneven activations": func() { ks.DotManyBiasBatch(vecs, bias, ok, unevenHs, outs) },

			"DotManyU8S8 id out of range":    func() { ks.DotManyU8S8(qvecs, bad, qas, accs) },
			"DotManyU8S8 negative id":        func() { ks.DotManyU8S8(qvecs, neg, qas, accs) },
			"DotManyU8S8 ragged row":         func() { ks.DotManyU8S8(qragged, rag, qas, accs) },
			"DotManyU8S8 short accs":         func() { ks.DotManyU8S8(qvecs, ok, qas, shortAccs) },
			"DotManyU8S8 fewer accs":         func() { ks.DotManyU8S8(qvecs, ok, qas, accs[:4]) },
			"DotManyU8S8 uneven activations": func() { ks.DotManyU8S8(qvecs, ok, unevenQas, accs) },
			"DotManyU8S8 short activations":  func() { ks.DotManyU8S8(qvecs, ok, [][]uint8{qas[0][:n-6]}, accs[:1]) },
			"DotManyU8S8 long activations":   func() { ks.DotManyU8S8(quantVectors(rng, 4, n-6, false), ok, qas[:1], accs[:1]) },

			"AxpyTwoMany short gz":        func() { ks.AxpyTwoMany(coef[:2], ok, h, grad, vecs, dh) },
			"AxpyTwoMany short dh":        func() { ks.AxpyTwoMany(coef, ok, h, grad, vecs, dh[:n-1]) },
			"AxpyTwoMany id out of range": func() { ks.AxpyTwoMany(coef, bad, h, grad, vecs, dh) },
			"AxpyTwoMany negative id":     func() { ks.AxpyTwoMany(coef, neg, h, grad, vecs, dh) },
			"AxpyTwoMany ragged grad":     func() { ks.AxpyTwoMany(coef, rag, h, ragged, vecs, dh) },
			"AxpyTwoMany ragged w":        func() { ks.AxpyTwoMany(coef, rag, h, grad, ragged, dh) },
			"AxpyTwoMany fewer w":         func() { ks.AxpyTwoMany(coef, ok, h, grad, vecs[:3], dh) },

			"GatherAxpy short alpha":     func() { ks.GatherAxpy(coef[:2], ok, vecs, dh) },
			"GatherAxpy short y":         func() { ks.GatherAxpy(coef, ok, vecs, dh[:n-1]) },
			"GatherAxpy id out of range": func() { ks.GatherAxpy(coef, bad, vecs, dh) },
			"GatherAxpy negative id":     func() { ks.GatherAxpy(coef, neg, vecs, dh) },
			"GatherAxpy ragged row":      func() { ks.GatherAxpy(coef, rag, ragged, dh) },

			"ScatterAxpy short alpha":     func() { ks.ScatterAxpy(coef[:2], ok, h, grad) },
			"ScatterAxpy short x":         func() { ks.ScatterAxpy(coef, ok, h[:n-1], grad) },
			"ScatterAxpy id out of range": func() { ks.ScatterAxpy(coef, bad, h, grad) },
			"ScatterAxpy negative id":     func() { ks.ScatterAxpy(coef, neg, h, grad) },
			"ScatterAxpy ragged row":      func() { ks.ScatterAxpy(coef, rag, h, ragged) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: %s did not panic", m, name)
					}
				}()
				f()
			}()
		}

		// The id ahead of an offender is applied exactly as the per-row
		// kernel would have.
		g2, dh2 := randRows(rng, 4, n), randSlice(rng, n)
		wantG, wantDh := append([]float32(nil), g2[1]...), append([]float32(nil), dh2...)
		ks.AxpyTwo(coef[0], h, wantG, vecs[1], wantDh)
		func() {
			defer func() { _ = recover() }()
			ks.AxpyTwoMany(coef, bad, h, g2, vecs, dh2)
		}()
		for i := range wantG {
			if g2[1][i] != wantG[i] || dh2[i] != wantDh[i] {
				t.Fatalf("%v: AxpyTwoMany lost the id ahead of the offender at column %d", m, i)
			}
		}

		// So is it by the integer tiled walk, for the first tile's samples at
		// least (its definition scores every sample of a row before the next
		// row).
		for s := range accs {
			accs[s][0] = math.MinInt32
		}
		func() {
			defer func() { _ = recover() }()
			ks.DotManyU8S8(qvecs, bad, qas, accs)
		}()
		if want := ks.DotU8S8(qas[0], qvecs[1]); accs[0][0] != want {
			t.Fatalf("%v: DotManyU8S8 lost the id ahead of the offender: %v, want %v", m, accs[0][0], want)
		}

		// And by the float one at every position of its row pairs: an
		// out-of-range id, or a ragged row, at list position 0-4 of a batch
		// of 1-5 samples raises the per-row loop's panic. The samples of the
		// walk's first call — sample 0 on the portable tiers, whose definition
		// finishes a sample's list first, the first tile on the assembly
		// tiers — hold the per-row logit at every position ahead of the
		// offender; nothing else is written.
		firstCall := max(map[Mode]int{AVX512: 4, AVX2: 2}[m], 1)
		unset := math.Float32frombits(0x7fc0dead)
		for _, off := range []struct {
			name string
			rows [][]float32
			id   int32
			msg  string
		}{
			{"id out of range", vecs, 4, "runtime error: index out of range [4] with length 4"},
			{"ragged row", ragged, 2, "simd: DotManyBias row length mismatch"},
		} {
			for nS := 1; nS <= len(hs); nS++ {
				for pos := 0; pos <= 4; pos++ {
					ids := []int32{1, 0, 3, 3, 1, 0}
					ids[pos] = off.id
					got := make([][]float32, nS)
					for s := range got {
						got[s] = make([]float32, len(ids))
						for k := range got[s] {
							got[s][k] = unset
						}
					}
					msg := func() (msg string) {
						defer func() { msg = fmt.Sprint(recover()) }()
						ks.DotManyBiasBatch(off.rows, bias, ids, hs[:nS], got)
						return
					}()
					name := fmt.Sprintf("%v: DotManyBiasBatch, %s at position %d of %d samples", m, off.name, pos, nS)
					if msg != off.msg {
						t.Errorf("%s: panic %q, want %q", name, msg, off.msg)
					}
					for s := range got {
						for k, id := range ids {
							want := unset
							if s < firstCall && k < pos {
								want = ks.Dot(off.rows[id], hs[s]) + bias[id]
							}
							if math.Float32bits(got[s][k]) != math.Float32bits(want) {
								t.Errorf("%s: outs[%d][%d] = %v, want %v", name, s, k, got[s][k], want)
							}
						}
					}
				}
			}
		}

		// More samples than any tile holds are walked, not refused.
		ks.DotManyBiasBatch(vecs, bias, ok, hs, outs)
		ks.DotManyU8S8(qvecs, ok, qas, accs)
		for s := range hs {
			for k, id := range ok {
				if want := ks.Dot(vecs[id], hs[s]) + bias[id]; outs[s][k] != want {
					t.Fatalf("%v: DotManyBiasBatch sample %d of %d, id %d: %v, want %v", m, s, nS, id, outs[s][k], want)
				}
				if want := ks.DotU8S8(qas[s], qvecs[id]); accs[s][k] != want {
					t.Fatalf("%v: DotManyU8S8 sample %d of %d, id %d: %v, want %v", m, s, nS, id, accs[s][k], want)
				}
			}
		}

		// Empty list: nothing is read, nothing is written.
		before := append([]float32(nil), dh...)
		ks.DotManyBiasBatch(nil, nil, nil, hs, [][]float32{nil, nil, nil, nil, nil})
		ks.DotManyBiasBatch(vecs, bias, ok, nil, nil)
		ks.DotManyU8S8(nil, nil, qas, [][]int32{nil, nil, nil, nil, nil})
		ks.DotManyU8S8(qvecs, ok, nil, nil)
		ks.DotManyBias(nil, nil, nil, h, nil)
		ks.AxpyTwoMany(nil, nil, h, nil, nil, dh)
		ks.GatherAxpy(nil, nil, nil, dh)
		ks.ScatterAxpy(nil, nil, h, nil)
		for i := range before {
			if dh[i] != before[i] {
				t.Fatalf("%v: an empty list changed dh[%d]", m, i)
			}
		}
	}
}

// TestActiveSetWalksDoNotAllocate: one call per sample must not become one
// allocation per sample on any tier.
func TestActiveSetWalksDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	const n, nVec = 200, 16
	vecs, grad := randRows(rng, nVec, n), randRows(rng, nVec, n)
	bias := randSlice(rng, nVec)
	h, dh := randSlice(rng, n), randSlice(rng, n)
	ids := []int32{3, 0, 15, 3, 9}
	coef, out := randSlice(rng, len(ids)), make([]float32, len(ids))
	qvecs := quantVectors(rng, nVec, n, false)
	hs, outs := make([][]float32, 5), make([][]float32, 5)
	qas, accs := make([][]uint8, 5), make([][]int32, 5)
	for s := range hs {
		hs[s], outs[s] = randSlice(rng, n), make([]float32, len(ids))
		qas[s], accs[s] = quantActs(rng, n, 0), make([]int32, len(ids))
	}
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for name, f := range map[string]func(){
			"DotManyBiasBatch": func() { ks.DotManyBiasBatch(vecs, bias, ids, hs, outs) },
			"DotManyU8S8":      func() { ks.DotManyU8S8(qvecs, ids, qas, accs) },

			"DotManyBias": func() { ks.DotManyBias(vecs, bias, ids, h, out) },
			"AxpyTwoMany": func() { ks.AxpyTwoMany(coef, ids, h, grad, vecs, dh) },
			"GatherAxpy":  func() { ks.GatherAxpy(coef, ids, vecs, dh) },
			"ScatterAxpy": func() { ks.ScatterAxpy(coef, ids, h, grad) },
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%v %s: %v allocations per call", m, name, a)
			}
		}
	}
}

// TestAxpyTwoMatchesTwoAxpys checks the fused backward walk against two
// independent scalar axpys across odd lengths and both modes.
func TestAxpyTwoMatchesTwoAxpys(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			for _, n := range fusedLens {
				h := randSlice(rng, n)
				w := randSlice(rng, n)
				grad0 := randSlice(rng, n)
				dh0 := randSlice(rng, n)
				gz := float32(rng.NormFloat64())

				grad := append([]float32(nil), grad0...)
				dh := append([]float32(nil), dh0...)
				Active().AxpyTwo(gz, h, grad, w, dh)

				wantGrad := append([]float32(nil), grad0...)
				wantDh := append([]float32(nil), dh0...)
				axpyScalar(gz, h, wantGrad)
				axpyScalar(gz, w, wantDh)
				for i := 0; i < n; i++ {
					if !approxEqual(float64(grad[i]), float64(wantGrad[i]), 1e-5) {
						t.Errorf("%v n=%d: grad[%d]=%g want %g", m, n, i, grad[i], wantGrad[i])
					}
					if !approxEqual(float64(dh[i]), float64(wantDh[i]), 1e-5) {
						t.Errorf("%v n=%d: dh[%d]=%g want %g", m, n, i, dh[i], wantDh[i])
					}
				}
			}
		})
	}
}

// TestAxpyTwoMismatchPanics: an input gradient shorter than the rows panics
// on every tier instead of being written past.
func TestAxpyTwoMismatchPanics(t *testing.T) {
	for _, m := range AvailableModes() {
		expectPanic(t, m.String()+" AxpyTwo with a short dh", func() {
			ForMode(m).AxpyTwo(1, make([]float32, 24), make([]float32, 24), make([]float32, 24), make([]float32, 16))
		})
	}
}

// TestKernelTableResolvesMode checks that Active and ForMode return tables
// whose entries match the mode-specific implementations, and that SetMode
// still flips which table Active returns (the Table-4 ablation contract).
func TestKernelTableResolvesMode(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			ks := Active()
			if ks.Mode != m {
				t.Fatalf("Active().Mode = %v under SetMode(%v)", ks.Mode, m)
			}
			if ks != ForMode(m) {
				t.Errorf("Active() and ForMode(%v) disagree", m)
			}
			if got := ks.Dot(a, b); got != 32 {
				t.Errorf("%v table Dot = %g, want 32", m, got)
			}
		})
	}
	// Both tables must produce equivalent results on every shared entry.
	rng := rand.New(rand.NewPCG(39, 40))
	x := randSlice(rng, 37)
	y := randSlice(rng, 37)
	vec, sca := ForMode(Vector), ForMode(Scalar)
	if !approxEqual(float64(vec.Dot(x, y)), float64(sca.Dot(x, y)), 1e-4) {
		t.Error("table Dot entries disagree between modes")
	}
	if vec.ArgMax(x) != sca.ArgMax(x) {
		t.Error("table ArgMax entries disagree between modes")
	}
}

// FuzzDotManyBias cross-checks the fused forward kernel against per-element
// scalar math on fuzz-generated rows, ids and activations.
func FuzzDotManyBias(f *testing.F) {
	f.Add(uint64(1), 8, 5, 3)
	f.Add(uint64(42), 0, 1, 1)
	f.Add(uint64(7), 17, 4, 9)
	f.Add(uint64(9), 200, 40, 137)
	f.Add(uint64(11), 333, 7, 20)
	f.Fuzz(func(t *testing.T, seed uint64, dim, nRows, nIDs int) {
		if dim < 0 || dim > 600 || nRows < 1 || nRows > 64 || nIDs < 0 || nIDs > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		rows := randRows(rng, nRows, dim)
		bias := randSlice(rng, nRows)
		h := randSlice(rng, dim)
		ids := make([]int32, nIDs)
		for i := range ids {
			ids[i] = int32(rng.IntN(nRows))
		}
		out := make([]float32, nIDs)
		for _, m := range AvailableModes() {
			ks := ForMode(m)
			ks.DotManyBias(rows, bias, ids, h, out)
			for k, id := range ids {
				if perRow := ks.Dot(rows[id], h) + bias[id]; out[k] != perRow {
					t.Fatalf("%v: out[%d]=%g, per-row kernel %g", m, k, out[k], perRow)
				}
				var want float64
				for i := 0; i < dim; i++ {
					want += float64(rows[id][i]) * float64(h[i])
				}
				want += float64(bias[id])
				if math.Abs(float64(out[k])-want) > 1e-2*math.Max(1, math.Abs(want)) {
					t.Fatalf("%v: out[%d]=%g, float64 reference %g", m, k, out[k], want)
				}
			}
		}
	})
}

// FuzzDotManyBiasBatch: on every tier the tiled forward walk yields, for
// every sample, exactly the tier's per-row Dot plus bias, and stays within
// reduction-order distance of a float64 reference, whatever the width, the
// row count, the list (ids repeat freely) and the batch size.
func FuzzDotManyBiasBatch(f *testing.F) {
	f.Add(uint64(1), 8, 5, 3, 1)
	f.Add(uint64(42), 0, 1, 1, 4)
	f.Add(uint64(7), 17, 4, 9, 2)
	f.Add(uint64(9), 200, 40, 137, 9)
	f.Add(uint64(11), 333, 7, 20, 5)
	f.Add(uint64(13), 128, 9, 0, 3)
	f.Fuzz(func(t *testing.T, seed uint64, dim, nRows, nIDs, nS int) {
		if dim < 0 || dim > 600 || nRows < 1 || nRows > 64 || nIDs < 0 || nIDs > 256 || nS < 0 || nS > 12 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 97))
		rows, bias := randRows(rng, nRows, dim), randSlice(rng, nRows)
		ids := make([]int32, nIDs)
		for i := range ids {
			ids[i] = int32(rng.IntN(nRows))
		}
		hs, outs := make([][]float32, nS), make([][]float32, nS)
		for s := range hs {
			hs[s], outs[s] = randSlice(rng, dim), make([]float32, nIDs)
		}
		for _, m := range AvailableModes() {
			ks := ForMode(m)
			ks.DotManyBiasBatch(rows, bias, ids, hs, outs)
			for s, h := range hs {
				for k, id := range ids {
					if perRow := ks.Dot(rows[id], h) + bias[id]; outs[s][k] != perRow {
						t.Fatalf("%v: outs[%d][%d]=%g, per-row kernel %g", m, s, k, outs[s][k], perRow)
					}
					var want float64
					for i := 0; i < dim; i++ {
						want += float64(rows[id][i]) * float64(h[i])
					}
					want += float64(bias[id])
					if math.Abs(float64(outs[s][k])-want) > 1e-2*math.Max(1, math.Abs(want)) {
						t.Fatalf("%v: outs[%d][%d]=%g, float64 reference %g", m, s, k, outs[s][k], want)
					}
				}
			}
		}
	})
}

// FuzzDotManyU8S8: on every tier the integer walk's accumulators are exactly
// the scalar reference's over operands anywhere in DotU8S8's contract range.
func FuzzDotManyU8S8(f *testing.F) {
	f.Add(uint64(1), 8, 5, 3, 1)
	f.Add(uint64(42), 0, 1, 1, 4)
	f.Add(uint64(7), 17, 4, 9, 2)
	f.Add(uint64(9), 200, 40, 137, 9)
	f.Add(uint64(11), 333, 7, 20, 5)
	f.Add(uint64(13), 128, 9, 0, 3)
	f.Add(uint64(15), 256, 3, 5, 4)
	// Odd id counts (the 2-row tile's lone last row) at every partial and
	// full tile width, within the resident blocks and past them.
	f.Add(uint64(17), 128, 6, 7, 1)
	f.Add(uint64(19), 64, 5, 11, 2)
	f.Add(uint64(21), 200, 9, 13, 3)
	f.Add(uint64(23), 300, 8, 15, 4)
	f.Add(uint64(25), 257, 4, 1, 3)
	f.Add(uint64(27), 65, 7, 9, 6)
	f.Fuzz(func(t *testing.T, seed uint64, dim, nRows, nIDs, nS int) {
		if dim < 0 || dim > 600 || nRows < 1 || nRows > 64 || nIDs < 0 || nIDs > 256 || nS < 0 || nS > 12 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 96))
		rows := quantVectors(rng, nRows, dim, seed%2 == 0)
		ids := make([]int32, nIDs)
		for i := range ids {
			ids[i] = int32(rng.IntN(nRows))
		}
		qas, accs := make([][]uint8, nS), make([][]int32, nS)
		for s := range qas {
			qas[s], accs[s] = quantActs(rng, dim, s%3), make([]int32, nIDs)
		}
		for _, m := range AvailableModes() {
			ks := ForMode(m)
			ks.DotManyU8S8(rows, ids, qas, accs)
			for s, qa := range qas {
				for k, id := range ids {
					if want := dotU8S8Scalar(qa, rows[id]); accs[s][k] != want {
						t.Fatalf("%v: accs[%d][%d]=%d, scalar reference %d", m, s, k, accs[s][k], want)
					}
				}
			}
		}
	})
}

// FuzzAxpyTwoMany: on every tier the backward walk leaves grad and dh exactly
// as the tier's per-row AxpyTwo does, whatever the width, vector count and
// list (ids repeat freely).
func FuzzAxpyTwoMany(f *testing.F) {
	f.Add(uint64(1), 8, 5, 3)
	f.Add(uint64(42), 0, 1, 1)
	f.Add(uint64(7), 128, 9, 40)
	f.Add(uint64(9), 200, 40, 137)
	f.Add(uint64(11), 333, 7, 20)
	f.Fuzz(func(t *testing.T, seed uint64, dim, nRows, nIDs int) {
		if dim < 0 || dim > 600 || nRows < 1 || nRows > 64 || nIDs < 0 || nIDs > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 98))
		w, grad0 := randRows(rng, nRows, dim), randRows(rng, nRows, dim)
		h, dh0 := randSlice(rng, dim), randSlice(rng, dim)
		gz := randSlice(rng, nIDs)
		ids := make([]int32, nIDs)
		for i := range ids {
			ids[i] = int32(rng.IntN(nRows))
		}
		for _, m := range AvailableModes() {
			ks := ForMode(m)
			grad, dh := randRows(rng, nRows, dim), append([]float32(nil), dh0...)
			want, wantDh := randRows(rng, nRows, dim), append([]float32(nil), dh0...)
			for i := range grad0 {
				copy(grad[i], grad0[i])
				copy(want[i], grad0[i])
			}
			ks.AxpyTwoMany(gz, ids, h, grad, w, dh)
			for k, id := range ids {
				ks.AxpyTwo(gz[k], h, want[id], w[id], wantDh)
			}
			for i := range want {
				for j := range want[i] {
					if grad[i][j] != want[i][j] {
						t.Fatalf("%v: grad[%d][%d]=%g, per-row kernel %g", m, i, j, grad[i][j], want[i][j])
					}
				}
			}
			for j := range wantDh {
				if dh[j] != wantDh[j] {
					t.Fatalf("%v: dh[%d]=%g, per-row kernel %g", m, j, dh[j], wantDh[j])
				}
			}
		}
	})
}
