package layer

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
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
				for _, locked := range []bool{false, true} {
					o := Options{Precision: prec, Placement: place, Locked: locked, Seed: 11}
					f(fmt.Sprintf("%v/%v/%v/locked=%v", m, prec, place, locked), simd.ForMode(m), o)
				}
			}
		}
	}
}

// TestAccumulateActiveEqualsAccumulateLoop: grad, gbias, the touched set and
// dh after one AccumulateActive call are those of Accumulate called once per
// id, in list order — including ids that repeat within the list.
func TestAccumulateActiveEqualsAccumulateLoop(t *testing.T) {
	const in, out = 200, 40
	rng := rand.New(rand.NewPCG(61, 62))
	forEachLayerVariant(func(name string, ks *simd.Kernels, o Options) {
		walk, loop := NewRowLayer(in, out, o), NewRowLayer(in, out, o)
		h := make([]float32, in)
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		hBF := bf16.FromSlice(h)
		active := make([]int32, 57)
		gz := make([]float32, len(active)+3) // longer than the list is allowed
		for k := range active {
			active[k] = int32(rng.IntN(out))
			if k%7 == 3 {
				active[k] = active[k-1]
			}
		}
		for k := range gz {
			gz[k] = float32(rng.NormFloat64())
		}
		// Two samples back to back, so the second walk starts from non-zero
		// gradient rows.
		for pass := 0; pass < 2; pass++ {
			dhWalk, dhLoop := make([]float32, in), make([]float32, in)
			walk.AccumulateActive(ks, active, gz, h, hBF, dhWalk)
			for k, id := range active {
				loop.Accumulate(ks, id, gz[k], h, hBF, dhLoop)
			}
			sameBits(t, name+" dh", dhWalk, dhLoop)
		}
		// And once with no input gradient wanted.
		walk.AccumulateActive(ks, active, gz, h, hBF, nil)
		for k, id := range active {
			loop.Accumulate(ks, id, gz[k], h, hBF, nil)
		}
		for i := range loop.grad {
			sameBits(t, fmt.Sprintf("%s grad[%d]", name, i), walk.grad[i], loop.grad[i])
		}
		sameBits(t, name+" gbias", walk.gbias, loop.gbias)
		if got, want := fmt.Sprint(walk.touched.ids()), fmt.Sprint(loop.touched.ids()); got != want {
			t.Fatalf("%s touched %s, want %s", name, got, want)
		}
	})
}

// TestColLayerWalksEqualPerNonZeroForms: Forward equals bias plus one
// ScaleAccum (AxpyBF16 for bfloat16 weights) per non-zero, and Backward's
// column gradients equal one Axpy per non-zero, exactly.
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
			for k, j := range x.Indices {
				if o.Precision == BF16Both {
					ks.AxpyBF16(x.Values[k], l.w.bf[j], want)
				} else {
					ks.Axpy(x.Values[k], l.w.f32[j], want)
				}
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
