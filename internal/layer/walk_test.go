package layer

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/simd"
)

// The layers hand whole index lists to the simd walk kernels; these tests pin
// each such call to the per-vector loop it replaced, exactly, on every kernel
// tier and across every layer option that selects a path.

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func forEachLayerVariant(f func(name string, ks *simd.Kernels, o Options)) {
	for _, m := range simd.AvailableModes() {
		for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
			for _, place := range []Placement{Contiguous, Scattered} {
				o := Options{Precision: prec, Placement: place, Seed: 11}
				f(fmt.Sprintf("%v/%v/%v", m, prec, place), simd.ForMode(m), o)
			}
		}
	}
}

// TestColLayerWalksEqualPerNonZeroForms: Forward equals bias plus one Axpy
// of the column (widened from bfloat16 for BF16Both) per non-zero, and
// Backward's column gradients equal one Axpy per non-zero, exactly.
func TestColLayerWalksEqualPerNonZeroForms(t *testing.T) {
	const in, out = 90, 200
	rng := rand.New(rand.NewPCG(63, 64))
	forEachLayerVariant(func(name string, ks *simd.Kernels, o Options) {
		for _, act := range []Activation{ReLU, Linear} {
			l := NewColLayer(in, out, act, o)
			for i := range l.bias {
				l.bias[i] = float32(rng.NormFloat64())
			}
			x := sampleVec(rng, in, 13)

			h := make([]float32, out)
			l.Forward(ks, x, h)
			want := append([]float32(nil), l.bias...)
			col := make([]float32, out)
			for k, j := range x.Indices {
				ks.Axpy(x.Values[k], l.Col(int(j), col), want)
			}
			if act == ReLU {
				for i := range want {
					if want[i] < 0 {
						want[i] = 0
					}
				}
			}
			if o.Precision != FP32 {
				ks.RoundBF16(want)
			}
			sameBits(t, name+" forward", h, want)

			wantGrad := make([][]float32, in)
			for j := range wantGrad {
				wantGrad[j] = make([]float32, out)
			}
			wantBias := make([]float32, out)
			for pass := 0; pass < 2; pass++ {
				dh := make([]float32, out)
				for i := range dh {
					dh[i] = float32(rng.NormFloat64())
				}
				l.Backward(ks, x, h, dh) // masks dh in place under ReLU
				ks.Add(dh, wantBias)
				for k, j := range x.Indices {
					ks.Axpy(x.Values[k], dh, wantGrad[j])
				}
			}
			for j := range wantGrad {
				sameBits(t, fmt.Sprintf("%s grad[%d]", name, j), l.grad[j], wantGrad[j])
			}
			sameBits(t, name+" gbias", l.gbias, wantBias)
			if got, want := fmt.Sprint(l.touched.ids()), fmt.Sprint(x.Indices); got != want {
				t.Fatalf("%s touched %s, want %s", name, got, want)
			}
		}
	})
}
