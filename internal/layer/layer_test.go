package layer

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// tks resolves the active kernel table, matching how the trainers call the
// layer hot paths (one table per stretch of work).
func tks() *simd.Kernels { return simd.Active() }

// refLogit is the definition every forward walk of a RowWeights is checked
// against: neuron id's pre-activation for the dense input h, the float32
// Dot of its row — bfloat16 rows widened on load — and h, plus the bias,
// one row at a time.
func refLogit(ks *simd.Kernels, w *RowWeights, id int32, h []float32) float32 {
	wb := w.vecs.widening(1)
	z := ks.Dot(w.vecs.row(ks, int(id), wb), h) + w.bias[id]
	wb.release()
	return z
}

func sampleVec(rng *rand.Rand, dim, nnz int) sparse.Vector {
	used := map[int32]bool{}
	idx := make([]int32, 0, nnz)
	for len(idx) < nnz {
		i := int32(rng.IntN(dim))
		if !used[i] {
			used[i] = true
			idx = append(idx, i)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	val := make([]float32, nnz)
	for i := range val {
		val[i] = float32(rng.NormFloat64())
	}
	return sparse.Vector{Indices: idx, Values: val}
}

// denseColRef computes act(Wx+b) in float64 straight from the column views.
func denseColRef(l *ColLayer, x sparse.Vector) []float64 {
	buf := make([]float32, l.Out)
	out := make([]float64, l.Out)
	for i := 0; i < l.Out; i++ {
		out[i] = float64(l.Bias()[i])
	}
	for k, j := range x.Indices {
		col := l.Col(int(j), buf)
		for i := 0; i < l.Out; i++ {
			out[i] += float64(x.Values[k]) * float64(col[i])
		}
	}
	if l.fwd.act == ReLU {
		for i := range out {
			if out[i] < 0 {
				out[i] = 0
			}
		}
	}
	return out
}

func TestColLayerForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, act := range []Activation{ReLU, Linear} {
		for _, place := range []Placement{Contiguous, Scattered} {
			l := NewColLayer(40, 24, act, Options{Placement: place, Seed: 7})
			x := sampleVec(rng, 40, 6)
			h := make([]float32, 24)
			l.Forward(tks(), x, h)
			ref := denseColRef(l, x)
			for i := range h {
				if math.Abs(float64(h[i])-ref[i]) > 1e-4 {
					t.Errorf("%v/%v: h[%d] = %g, reference %g", act, place, i, h[i], ref[i])
				}
			}
		}
	}
}

func TestColLayerPlacementEquivalence(t *testing.T) {
	// Same seed, different placement: forward results must be identical.
	rng := rand.New(rand.NewPCG(3, 4))
	lc := NewColLayer(30, 16, ReLU, Options{Placement: Contiguous, Seed: 9})
	ls := NewColLayer(30, 16, ReLU, Options{Placement: Scattered, Seed: 9})
	x := sampleVec(rng, 30, 5)
	hc := make([]float32, 16)
	hs := make([]float32, 16)
	lc.Forward(tks(), x, hc)
	ls.Forward(tks(), x, hs)
	for i := range hc {
		if hc[i] != hs[i] {
			t.Fatalf("placement changed forward result at %d: %g vs %g", i, hc[i], hs[i])
		}
	}
}

func TestColLayerBF16ActRoundsActivations(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	l32 := NewColLayer(20, 8, ReLU, Options{Precision: FP32, Seed: 3})
	lbf := NewColLayer(20, 8, ReLU, Options{Precision: BF16Act, Seed: 3})
	x := sampleVec(rng, 20, 4)
	h32 := make([]float32, 8)
	hbf := make([]float32, 8)
	l32.Forward(tks(), x, h32)
	lbf.Forward(tks(), x, hbf)
	for i := range hbf {
		want := bf16.RoundFloat32(h32[i])
		if hbf[i] != want {
			t.Errorf("h[%d] = %g, want bf16-rounded %g", i, hbf[i], want)
		}
	}
}

func TestColLayerBF16BothCloseToFP32(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	l32 := NewColLayer(25, 10, Linear, Options{Precision: FP32, Seed: 11})
	lbb := NewColLayer(25, 10, Linear, Options{Precision: BF16Both, Seed: 11})
	x := sampleVec(rng, 25, 8)
	h32 := make([]float32, 10)
	hbb := make([]float32, 10)
	l32.Forward(tks(), x, h32)
	lbb.Forward(tks(), x, hbb)
	for i := range h32 {
		if math.Abs(float64(h32[i])-float64(hbb[i])) > 0.05*math.Max(1, math.Abs(float64(h32[i]))) {
			t.Errorf("BF16Both diverged at %d: %g vs %g", i, hbb[i], h32[i])
		}
	}
}

func TestColLayerBackwardAccumulatesExactGradient(t *testing.T) {
	l := NewColLayer(10, 6, Linear, Options{Seed: 1})
	x := sparse.Vector{Indices: []int32{2, 7}, Values: []float32{0.5, -1.5}}
	h := make([]float32, 6)
	l.Forward(tks(), x, h)
	dh := []float32{1, 2, 3, 4, 5, 6}
	want := append([]float32(nil), dh...)
	l.Backward(tks(), x, h, dh)
	// grad[j] must equal x_j * dh for the touched columns, zero elsewhere.
	for j := 0; j < 10; j++ {
		var xj float32
		for k, idx := range x.Indices {
			if int(idx) == j {
				xj = x.Values[k]
			}
		}
		for i := 0; i < 6; i++ {
			wantG := xj * want[i]
			if g := l.grad[j][i]; math.Abs(float64(g-wantG)) > 1e-6 {
				t.Errorf("grad[%d][%d] = %g, want %g", j, i, g, wantG)
			}
		}
	}
	if n := l.touched.count(); n != 2 {
		t.Errorf("TouchedCols = %d, want 2", n)
	}
	// Bias gradient is dh itself.
	for i := range want {
		if l.gbias[i] != want[i] {
			t.Errorf("gbias[%d] = %g, want %g", i, l.gbias[i], want[i])
		}
	}
}

func TestColLayerReLUMasksGradient(t *testing.T) {
	l := NewColLayer(4, 3, ReLU, Options{Seed: 2})
	x := sparse.Vector{Indices: []int32{1}, Values: []float32{1}}
	h := []float32{0, 0.5, 0} // units 0 and 2 inactive
	dh := []float32{10, 20, 30}
	l.Backward(tks(), x, h, dh)
	if dh[0] != 0 || dh[2] != 0 {
		t.Errorf("inactive units not masked: dh = %v", dh)
	}
	if dh[1] != 20 {
		t.Errorf("active unit wrongly masked: dh[1] = %g", dh[1])
	}
}

func TestColLayerApplyAdamMovesOnlyTouched(t *testing.T) {
	l := NewColLayer(8, 4, Linear, Options{Seed: 5})
	before := make([][]float32, 8)
	buf := make([]float32, 4)
	for j := range before {
		before[j] = append([]float32(nil), l.Col(j, buf)...)
	}
	x := sparse.Vector{Indices: []int32{3}, Values: []float32{2}}
	h := make([]float32, 4)
	l.Forward(tks(), x, h)
	dh := []float32{1, 1, 1, 1}
	l.Backward(tks(), x, h, dh)
	l.ApplyAdam(tks(), simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, 1), 2)

	for j := 0; j < 8; j++ {
		col := l.Col(j, buf)
		changed := false
		for i := range col {
			if col[i] != before[j][i] {
				changed = true
			}
		}
		if j == 3 && !changed {
			t.Error("touched column 3 did not move")
		}
		if j != 3 && changed {
			t.Errorf("untouched column %d moved", j)
		}
	}
	if l.touched.count() != 0 {
		t.Error("touched set not cleared after ApplyAdam")
	}
	// Gradients must be consumed.
	for i := range l.grad[3] {
		if l.grad[3][i] != 0 {
			t.Error("gradient not zeroed after ApplyAdam")
		}
	}
}

func TestRowLayerLogitMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	l := NewRowLayer(16, 12, Options{Seed: 13})
	h := make([]float32, 16)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
	}
	buf := make([]float32, 16)
	for id := int32(0); id < 12; id++ {
		want := simd.ForMode(simd.Scalar).Dot(l.RowF32(int(id), buf), h) + l.Bias()[id]
		got := refLogit(tks(), l.ForwardView(), id, h)
		if math.Abs(float64(got-want)) > 1e-4 {
			t.Errorf("Logit(%d) = %g, want %g", id, got, want)
		}
	}
}

func TestRowLayerPrecisionLogits(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	h := make([]float32, 32)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
	}
	hr := append([]float32(nil), h...) // the BF16 modes take h rounded
	bf16.RoundSlice(hr)

	l32 := NewRowLayer(32, 6, Options{Precision: FP32, Seed: 15})
	lact := NewRowLayer(32, 6, Options{Precision: BF16Act, Seed: 15})
	lboth := NewRowLayer(32, 6, Options{Precision: BF16Both, Seed: 15})
	for id := int32(0); id < 6; id++ {
		ref := float64(refLogit(tks(), l32.ForwardView(), id, h))
		a := float64(refLogit(tks(), lact.ForwardView(), id, hr))
		b := float64(refLogit(tks(), lboth.ForwardView(), id, hr))
		if math.Abs(a-ref) > 0.05*math.Max(1, math.Abs(ref)) {
			t.Errorf("BF16Act logit %d = %g, fp32 %g", id, a, ref)
		}
		if math.Abs(b-ref) > 0.1*math.Max(1, math.Abs(ref)) {
			t.Errorf("BF16Both logit %d = %g, fp32 %g", id, b, ref)
		}
	}
}

// TestBF16ActIsFloat32OnRoundedActivations: BF16Act rows are float32 and
// its activations arrive rounded through bfloat16, so on every tier and
// placement a BF16Act layer computes exactly what an FP32 layer with the same
// weights computes from the same rounded h — logits one row at a time, over
// an active set and over every row; gradients, bias gradients and ∇h over an
// active set; and the stripe walks, which take it like FP32.
func TestBF16ActIsFloat32OnRoundedActivations(t *testing.T) {
	const in, out = 200, 37
	rng := rand.New(rand.NewPCG(81, 82))
	hs := make([][]float32, 5)
	for s := range hs {
		hs[s] = randVec(rng, in)
		bf16.RoundSlice(hs[s])
	}
	active := []int32{3, 0, 36, 3, 17}
	gz := randVec(rng, len(active))
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		for _, place := range []Placement{Contiguous, Scattered} {
			name := fmt.Sprintf("%v/%v", m, place)
			f32 := NewRowLayer(in, out, Options{Precision: FP32, Placement: place, Seed: 83})
			act := NewRowLayer(in, out, Options{Precision: BF16Act, Placement: place, Seed: 83})
			for id := int32(0); id < out; id++ {
				a, b := refLogit(ks, act.ForwardView(), id, hs[0]), refLogit(ks, f32.ForwardView(), id, hs[0])
				if math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("%s: Logit(%d) = %g, FP32 %g", name, id, a, b)
				}
			}
			got, want := make([]float32, len(active)), make([]float32, len(active))
			act.ForwardActive(ks, active, hs[0], nil, got)
			f32.ForwardActive(ks, active, hs[0], nil, want)
			sameBits(t, name+" ForwardActive", got, want)
			gotAll, wantAll := make([][]float32, len(hs)), make([][]float32, len(hs))
			for s := range hs {
				gotAll[s], wantAll[s] = make([]float32, out), make([]float32, out)
			}
			act.ForwardView().ForwardAllBatch(ks, hs, make([][]bf16.BF16, len(hs)), gotAll)
			f32.ForwardView().ForwardAllBatch(ks, hs, make([][]bf16.BF16, len(hs)), wantAll)
			for s := range hs {
				sameBits(t, fmt.Sprintf("%s ForwardAllBatch sample %d", name, s), gotAll[s], wantAll[s])
			}
			dhGot, dhWant := make([]float32, in), make([]float32, in)
			accumulateEach(ks, act, active, gz, hs[0], dhGot)
			accumulateEach(ks, f32, active, gz, hs[0], dhWant)
			sameBits(t, name+" dh", dhGot, dhWant)
			sameBits(t, name+" gbias", act.gbias, f32.gbias)
			for r := range out {
				sameBits(t, fmt.Sprintf("%s grad[%d]", name, r), act.grad[r], f32.grad[r])
			}
			if act.TouchedRows() != f32.TouchedRows() {
				t.Errorf("%s: %d rows touched, FP32 %d", name, act.TouchedRows(), f32.TouchedRows())
			}
			checkStripeWalks(t, name+" stripe", ks, Options{Precision: BF16Act, Placement: place, Seed: 84},
				in, out, randLists(rng, 6, out, 9), 5, rng)
		}
	}
}

// widenedRowTwins returns a BF16Both RowLayer and an FP32 twin holding its
// rows widened to float32, both with the same random bias.
func widenedRowTwins(in, out int, place Placement, rng *rand.Rand) (bf, f32 *RowLayer) {
	bf = NewRowLayer(in, out, Options{Precision: BF16Both, Placement: place, Seed: 87})
	f32 = NewRowLayer(in, out, Options{Precision: FP32, Placement: place, Seed: 87})
	for i := range out {
		bf16.Expand(f32.w.f32[i], bf.w.bf[i])
		bf.bias[i] = float32(rng.NormFloat64())
		f32.bias[i] = bf.bias[i]
	}
	return bf, f32
}

// TestBF16BothIsFloat32OnWidenedRows: BF16Both stores its vectors in
// bfloat16 and widens them on load into the float32 kernels, so on every tier
// and placement a BF16Both layer computes exactly what an FP32 twin holding
// the widened values computes from the same rounded h: the RowLayer's logits
// one row at a time, over an active set, over every row and over row ranges
// cut inside and on blocks; its gradients, bias gradients, ∇h and touched
// rows over an active set and through the stripe walks (which also equal the
// per-sample walks); and the ColLayer's forward — rounded, as the BF16 modes'
// is — and backward.
func TestBF16BothIsFloat32OnWidenedRows(t *testing.T) {
	const in, colIn = 200, 90
	block := BlockRows(4 * in)
	out := 2*block + 5
	rng := rand.New(rand.NewPCG(85, 86))
	hs := make([][]float32, 6)
	for s := range hs {
		hs[s] = randVec(rng, in)
		bf16.RoundSlice(hs[s])
	}
	active := []int32{3, 0, int32(out - 1), 3, int32(block)}
	gz := randVec(rng, len(active))
	offs, stripeIDs := flatten(randLists(rng, len(hs), out, 40))
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		for _, place := range []Placement{Contiguous, Scattered} {
			name := fmt.Sprintf("%v/%v", m, place)
			bf, f32 := widenedRowTwins(in, out, place, rng)
			for id := range int32(out) {
				a, b := refLogit(ks, bf.ForwardView(), id, hs[0]), refLogit(ks, f32.ForwardView(), id, hs[0])
				if math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("%s: Logit(%d) = %g, FP32 %g", name, id, a, b)
				}
			}
			got, want := make([]float32, len(active)), make([]float32, len(active))
			bf.ForwardActive(ks, active, hs[0], nil, got)
			f32.ForwardActive(ks, active, hs[0], nil, want)
			sameBits(t, name+" ForwardActive", got, want)

			gotAll, wantAll := make([][]float32, len(hs)), make([][]float32, len(hs))
			for s := range hs {
				gotAll[s], wantAll[s] = make([]float32, out), make([]float32, out)
			}
			f32.ForwardView().ForwardAllBatch(ks, hs, nil, wantAll)
			for _, n := range []int{1, 5, len(hs)} {
				bf.ForwardView().ForwardAllBatch(ks, hs[:n], nil, gotAll[:n])
				for s := range n {
					sameBits(t, fmt.Sprintf("%s ForwardAllBatch chunk=%d sample %d", name, n, s), gotAll[s], wantAll[s])
				}
			}
			for _, cuts := range [][]int{{0, 7, out}, {0, block, out}, {0, out / 3, out - out/4, out}, {0, 1, block + 1, 2 * block, out}} {
				for s := range gotAll {
					clear(gotAll[s])
				}
				win := new([simd.WalkTile][]float32)
				for i := range len(cuts) - 1 {
					bf.ForwardView().ForwardAllBatchRange(ks, hs, gotAll, cuts[i], cuts[i+1], win)
				}
				for s := range hs {
					sameBits(t, fmt.Sprintf("%s ForwardAllBatchRange cuts=%v sample %d", name, cuts, s), gotAll[s], wantAll[s])
				}
			}

			dhGot, dhWant := make([]float32, in), make([]float32, in)
			accumulateEach(ks, bf, active, gz, hs[0], dhGot)
			accumulateEach(ks, f32, active, gz, hs[0], dhWant)
			sameBits(t, name+" dh", dhGot, dhWant)

			var x StripeIndex
			x.Build(out, offs, stripeIDs)
			stripeGot, stripeWant := make([]float32, len(stripeIDs)), make([]float32, len(stripeIDs))
			bf.ForwardStripe(ks, &x, hs, stripeGot, 5)
			f32.ForwardStripe(ks, &x, hs, stripeWant, 5)
			sameBits(t, name+" ForwardStripe", stripeGot, stripeWant)
			sgz := randVec(rng, len(stripeIDs))
			dhsGot, dhsWant := make([][]float32, len(hs)), make([][]float32, len(hs))
			for k := range hs {
				dhsGot[k], dhsWant[k] = make([]float32, in), make([]float32, in)
			}
			bf.AccumulateStripe(ks, &x, sgz, hs, dhsGot, 5, nil)
			f32.AccumulateStripe(ks, &x, sgz, hs, dhsWant, 5, nil)
			for k := range hs {
				sameBits(t, fmt.Sprintf("%s AccumulateStripe dh %d", name, k), dhsGot[k], dhsWant[k])
			}
			sameBits(t, name+" gbias", bf.gbias, f32.gbias)
			for r := range out {
				sameBits(t, fmt.Sprintf("%s grad[%d]", name, r), bf.grad[r], f32.grad[r])
			}
			if got, want := fmt.Sprint(bf.touched.ids()), fmt.Sprint(f32.touched.ids()); got != want {
				t.Fatalf("%s: touched %s, FP32 %s", name, got, want)
			}
			checkStripeWalks(t, name+" stripe", ks, Options{Precision: BF16Both, Placement: place, Seed: 84},
				in, 37, randLists(rng, 6, 37, 9), 5, rng)

			cbf := NewColLayer(colIn, in, ReLU, Options{Precision: BF16Both, Placement: place, Seed: 88})
			cf := NewColLayer(colIn, in, ReLU, Options{Precision: FP32, Placement: place, Seed: 88})
			for j := range colIn {
				bf16.Expand(cf.w.f32[j], cbf.w.bf[j])
			}
			for i := range in {
				cbf.bias[i] = float32(rng.NormFloat64())
				cf.bias[i] = cbf.bias[i]
			}
			sv := sampleVec(rng, colIn, 13)
			hb, hf := make([]float32, in), make([]float32, in)
			cbf.Forward(ks, sv, hb)
			cf.Forward(ks, sv, hf)
			bf16.RoundSlice(hf)
			sameBits(t, name+" ColLayer.Forward", hb, hf)
			dhb := randVec(rng, in)
			dhf := append([]float32(nil), dhb...)
			cbf.Backward(ks, sv, hb, dhb)
			cf.Backward(ks, sv, hb, dhf)
			for j := range colIn {
				sameBits(t, fmt.Sprintf("%s ColLayer grad[%d]", name, j), cbf.grad[j], cf.grad[j])
			}
			sameBits(t, name+" ColLayer gbias", cbf.gbias, cf.gbias)
			if got, want := fmt.Sprint(cbf.touched.ids()), fmt.Sprint(cf.touched.ids()); got != want {
				t.Fatalf("%s: ColLayer touched %s, FP32 %s", name, got, want)
			}
		}
	}
}

func TestRowLayerAccumulateAndAdam(t *testing.T) {
	l := NewRowLayer(8, 5, Options{Seed: 17})
	h := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	dh := make([]float32, 8)
	rowBefore := append([]float32(nil), l.RowF32(2, nil)...)

	l.Accumulate(tks(), 2, 0.5, h, nil, dh)
	// grad row = gz*h, bias grad = gz, dh = gz*W[2].
	for i := range h {
		if g := l.grad[2][i]; math.Abs(float64(g-0.5*h[i])) > 1e-6 {
			t.Errorf("grad[2][%d] = %g, want %g", i, g, 0.5*h[i])
		}
		want := 0.5 * rowBefore[i]
		if math.Abs(float64(dh[i]-want)) > 1e-6 {
			t.Errorf("dh[%d] = %g, want %g", i, dh[i], want)
		}
	}
	if l.gbias[2] != 0.5 {
		t.Errorf("gbias[2] = %g, want 0.5", l.gbias[2])
	}
	if l.TouchedRows() != 1 {
		t.Errorf("TouchedRows = %d, want 1", l.TouchedRows())
	}

	l.ApplyAdam(tks(), simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, 1), 2)
	moved := false
	row := l.RowF32(2, nil)
	for i := range row {
		if row[i] != rowBefore[i] {
			moved = true
		}
	}
	if !moved {
		t.Error("row 2 did not move after ApplyAdam")
	}
	if l.TouchedRows() != 0 || l.gbias[2] != 0 {
		t.Error("state not cleared after ApplyAdam")
	}
}

func TestRowLayerApplyAdamAllEqualsSparseWhenAllTouched(t *testing.T) {
	mk := func() *RowLayer { return NewRowLayer(6, 9, Options{Seed: 19}) }
	a, b := mk(), mk()
	h := []float32{1, -1, 2, -2, 3, -3}
	for id := int32(0); id < 9; id++ {
		a.Accumulate(tks(), id, float32(id)*0.1, h, nil, nil)
		b.Accumulate(tks(), id, float32(id)*0.1, h, nil, nil)
	}
	p := simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, 1)
	a.ApplyAdam(tks(), p, 2)
	b.ApplyAdamAll(tks(), p, 2)
	for id := 0; id < 9; id++ {
		ra, rb := a.RowF32(id, nil), b.RowF32(id, nil)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d diverged between sparse and dense Adam", id)
			}
		}
		if a.Bias()[id] != b.Bias()[id] {
			t.Fatalf("bias %d diverged", id)
		}
	}
}

// TestRowLayerForwardAll pins the exact walk to the per-row definition:
// every score ForwardAllBatchRange, ForwardAllBatch and ForwardAll produce is
// Logit of that row and sample, bit for bit — on every kernel tier, precision
// and placement, for chunks of 1 to 64 samples (every remainder of the sample
// tile), for layers that end just before, on and after a block boundary, and
// for row ranges that start and end inside a block, with the caller's window
// scratch and without.
func TestRowLayerForwardAll(t *testing.T) {
	const in = 200
	rng := rand.New(rand.NewPCG(21, 22))
	hs := make([][]float32, 64)
	for s := range hs {
		hs[s] = make([]float32, in)
		for i := range hs[s] {
			hs[s][i] = float32(rng.NormFloat64())
		}
	}
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
			block := BlockRows(4 * in) // bfloat16 rows are walked widened
			for _, place := range []Placement{Contiguous, Scattered} {
				for _, out := range []int{1, block - 1, block, block + 1, 3*block + 7} {
					name := fmt.Sprintf("%v/%v/%v/out=%d", m, prec, place, out)
					w := NewRowLayer(in, out, Options{Precision: prec, Placement: place, Seed: 23}).ForwardView()
					want := make([][]float32, len(hs))
					got := make([][]float32, len(hs))
					for s := range hs {
						want[s], got[s] = make([]float32, out), make([]float32, out)
						for i := range want[s] {
							want[s][i] = refLogit(ks, w, int32(i), hs[s])
						}
					}
					clear := func() {
						for s := range got {
							for i := range got[s] {
								got[s][i] = float32(math.NaN())
							}
						}
					}
					for _, n := range []int{1, 2, 3, 4, 5, 33, 64} {
						clear()
						w.ForwardAllBatch(ks, hs[:n], nil, got[:n])
						for s := 0; s < n; s++ {
							sameBits(t, fmt.Sprintf("%s ForwardAllBatch chunk=%d sample %d", name, n, s), got[s], want[s])
						}
					}
					// Three ranges cut inside blocks assemble the same scores;
					// rows outside a range are not written.
					cutA, cutB := out/3, out-out/4
					clear()
					win := new([simd.WalkTile][]float32)
					w.ForwardAllBatchRange(ks, hs[:2], got[:2], cutA, cutB, win)
					for i := 0; i < out; i++ {
						if inside := i >= cutA && i < cutB; inside == math.IsNaN(float64(got[1][i])) {
							t.Fatalf("%s: range [%d,%d) row %d written=%v", name, cutA, cutB, i, !inside)
						}
					}
					w.ForwardAllBatchRange(ks, hs[:2], got[:2], 0, cutA, win)
					w.ForwardAllBatchRange(ks, hs[:2], got[:2], cutB, out, nil)
					w.ForwardAllBatchRange(ks, hs[:2], got[:2], cutB, cutB, nil) // empty: a no-op
					sameBits(t, name+" ranges sample 0", got[0], want[0])
					sameBits(t, name+" ranges sample 1", got[1], want[1])
					clear()
					w.ForwardAll(ks, hs[5], nil, got[5], 1)
					sameBits(t, name+" ForwardAll", got[5], want[5])
				}
			}
		}
	}
	// The walk still refuses a batch whose outputs do not match its inputs,
	// a short output vector and a row range outside the layer.
	w := NewRowLayer(in, 6, Options{Seed: 24}).ForwardView()
	outs := [][]float32{make([]float32, 6)}
	for name, call := range map[string]func(){
		"batch mismatch": func() { w.ForwardAllBatchRange(tks(), hs[:1], nil, 0, 6, nil) },
		"short out":      func() { w.ForwardAllBatch(tks(), hs[:1], nil, [][]float32{make([]float32, 5)}) },
		"short single":   func() { w.ForwardAll(tks(), hs[0], nil, make([]float32, 5), 1) },
		"range past end": func() { w.ForwardAllBatchRange(tks(), hs[:1], outs, 2, 7, nil) },
		"range reversed": func() { w.ForwardAllBatchRange(tks(), hs[:1], outs, 3, 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestGradientCheckEndToEnd drives a two-layer forward/backward by hand and
// verifies the accumulated analytic gradients against central finite
// differences of the sampled-softmax cross-entropy loss.
func TestGradientCheckEndToEnd(t *testing.T) {
	const (
		in     = 12
		hid    = 8
		out    = 7
		target = 3
	)
	hiddenL := NewColLayer(in, hid, Linear, Options{Seed: 25})
	outputL := NewRowLayer(hid, out, Options{Seed: 27})
	x := sparse.Vector{Indices: []int32{1, 4, 9}, Values: []float32{0.7, -1.1, 0.4}}
	active := []int32{0, 1, 2, 3, 4, 5, 6}

	loss := func() float64 {
		h := make([]float32, hid)
		hiddenL.Forward(tks(), x, h)
		logits := make([]float32, out)
		outputL.ForwardActive(tks(), active, h, nil, logits)
		maxL := float64(logits[0])
		for _, l := range logits {
			if float64(l) > maxL {
				maxL = float64(l)
			}
		}
		var z float64
		for _, l := range logits {
			z += math.Exp(float64(l) - maxL)
		}
		return -(float64(logits[target]) - maxL - math.Log(z))
	}

	// Analytic backward.
	h := make([]float32, hid)
	hiddenL.Forward(tks(), x, h)
	logits := make([]float32, out)
	outputL.ForwardActive(tks(), active, h, nil, logits)
	maxL := logits[0]
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var z float64
	probs := make([]float32, out)
	for k, l := range logits {
		probs[k] = float32(math.Exp(float64(l - maxL)))
		z += float64(probs[k])
	}
	dh := make([]float32, hid)
	for k, id := range active {
		gz := probs[k]/float32(z) - b2f(k == target)
		outputL.Accumulate(tks(), id, gz, h, nil, dh)
	}
	hiddenL.Backward(tks(), x, h, dh)

	const eps = 1e-3
	checkGrad := func(name string, w *float32, analytic float32) {
		t.Helper()
		orig := *w
		*w = orig + eps
		lp := loss()
		*w = orig - eps
		lm := loss()
		*w = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic)) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Errorf("%s: analytic %g vs numeric %g", name, analytic, numeric)
		}
	}

	// Output-layer weights (a few rows, all dims).
	for _, id := range []int{0, 3, 6} {
		for i := 0; i < hid; i += 3 {
			checkGrad("outW", &outputL.w.f32[id][i], outputL.grad[id][i])
		}
	}
	// Output-layer biases.
	for _, id := range []int{1, 3} {
		checkGrad("outB", &outputL.bias[id], outputL.gbias[id])
	}
	// Hidden-layer weights: only touched columns (non-zeros of x).
	for _, j := range x.Indices {
		for i := 0; i < hid; i += 2 {
			checkGrad("hidW", &hiddenL.w.f32[j][i], hiddenL.grad[j][i])
		}
	}
	// Hidden bias.
	for i := 0; i < hid; i += 2 {
		checkGrad("hidB", &hiddenL.bias[i], hiddenL.gbias[i])
	}
}

func b2f(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

func TestSnapshotWeightsAreImmutable(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
		for _, place := range []Placement{Contiguous, Scattered} {
			col := NewColLayer(10, 8, ReLU, Options{Precision: prec, Placement: place, Seed: 41})
			row := NewRowLayer(8, 6, Options{Precision: prec, Placement: place, Seed: 43})

			x := sampleVec(rng, 10, 4)
			h := make([]float32, 8)
			col.Forward(tks(), x, h)
			logits := make([]float32, 6)
			row.ForwardAll(tks(), h, nil, logits, 1)

			colSnap := col.SnapshotWeights()
			rowSnap := row.SnapshotWeights()

			// Snapshot forward matches the live layer exactly.
			h2 := make([]float32, 8)
			colSnap.Forward(tks(), x, h2)
			logits2 := make([]float32, 6)
			rowSnap.ForwardAll(tks(), h2, nil, logits2, 1)
			for i := range h {
				if h[i] != h2[i] {
					t.Fatalf("%v/%v: snapshot hidden[%d] = %g, live %g", prec, place, i, h2[i], h[i])
				}
			}
			for i := range logits {
				if logits[i] != logits2[i] {
					t.Fatalf("%v/%v: snapshot logit[%d] = %g, live %g", prec, place, i, logits2[i], logits[i])
				}
			}

			// Train the live layers: snapshots must not move.
			dh := make([]float32, 8)
			for i := range dh {
				dh[i] = float32(rng.NormFloat64())
			}
			col.Backward(tks(), x, h, dh)
			row.Accumulate(tks(), 2, 0.7, h, nil, nil)
			p := simd.NewAdamParams(0.1, 0.9, 0.999, 1e-8, 1)
			col.ApplyAdam(tks(), p, 1)
			row.ApplyAdam(tks(), p, 1)

			colSnap.Forward(tks(), x, h2)
			rowSnap.ForwardAll(tks(), h2, nil, logits2, 1)
			for i := range logits {
				if logits[i] != logits2[i] {
					t.Fatalf("%v/%v: snapshot logit[%d] moved after live training: %g -> %g",
						prec, place, i, logits[i], logits2[i])
				}
			}

			// The live view, by contrast, tracks the update.
			hLive := make([]float32, 8)
			col.ForwardView().Forward(tks(), x, hLive)
			changed := false
			for i := range hLive {
				if hLive[i] != h[i] {
					changed = true
				}
			}
			if !changed && x.Indices != nil {
				t.Errorf("%v/%v: live view did not track the weight update", prec, place)
			}
		}
	}
}

func TestTouchSet(t *testing.T) {
	ts := newTouchSet(100)
	for _, id := range []int32{0, 31, 32, 63, 64, 99} {
		ts.mark(id)
	}
	ts.mark(31) // re-mark is a no-op
	if ts.count() != 6 {
		t.Fatalf("count = %d, want 6", ts.count())
	}
	seen := map[int32]bool{}
	// Three ranges that split inside a word, on a word boundary and past the
	// end: every marked id is visited by exactly one of them.
	for _, r := range [][2]int{{-4, 31}, {31, 64}, {64, 200}} {
		ts.forEachRange(r[0], r[1], func(id int32) {
			if seen[id] {
				t.Errorf("id %d visited twice", id)
			}
			seen[id] = true
		})
	}
	for _, id := range []int32{0, 31, 32, 63, 64, 99} {
		if !seen[id] {
			t.Errorf("id %d not visited", id)
		}
	}
	if len(seen) != 6 {
		t.Errorf("visited %d ids, want 6", len(seen))
	}
	ts.clear()
	if ts.count() != 0 {
		t.Error("clear did not empty the set")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"col zero in":  func() { NewColLayer(0, 4, ReLU, Options{}) },
		"col zero out": func() { NewColLayer(4, 0, ReLU, Options{}) },
		"row zero in":  func() { NewRowLayer(0, 4, Options{}) },
		"row zero out": func() { NewRowLayer(4, -1, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEnumStrings(t *testing.T) {
	if FP32.String() != "fp32" || BF16Act.String() != "bf16-act" || BF16Both.String() != "bf16-both" || Precision(9).String() != "unknown" {
		t.Error("Precision strings wrong")
	}
	if Contiguous.String() != "contiguous" || Scattered.String() != "scattered" || Placement(9).String() != "unknown" {
		t.Error("Placement strings wrong")
	}
	if ReLU.String() != "relu" || Linear.String() != "linear" || Activation(9).String() != "unknown" {
		t.Error("Activation strings wrong")
	}
}

func TestRowLayerForwardAllBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
		l := NewRowLayer(12, 30, Options{Precision: prec, Seed: 53})
		w := l.ForwardView()
		const batch = 5
		hs := make([][]float32, batch)
		want := make([][]float32, batch)
		outs := make([][]float32, batch)
		for s := range hs {
			hs[s] = make([]float32, 12)
			for i := range hs[s] {
				hs[s][i] = float32(rng.NormFloat64())
			}
			if prec != FP32 {
				bf16.RoundSlice(hs[s])
			}
			want[s] = make([]float32, 30)
			w.ForwardAll(tks(), hs[s], nil, want[s], 1)
			outs[s] = make([]float32, 30)
		}
		w.ForwardAllBatch(tks(), hs, nil, outs)
		for s := range outs {
			for i := range outs[s] {
				if outs[s][i] != want[s][i] {
					t.Fatalf("%v: batch[%d][%d] = %g, per-sample %g",
						prec, s, i, outs[s][i], want[s][i])
				}
			}
		}
	}
}

func TestRowLayerForwardAllBatchEmpty(t *testing.T) {
	l := NewRowLayer(4, 3, Options{Seed: 55})
	// A zero-sample batch is a no-op, not a panic.
	l.ForwardView().ForwardAllBatch(tks(), nil, nil, nil)
}
