package simd

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/slide-cpu/slide/internal/bf16"
)

// withMode runs f under the given kernel mode, restoring the previous mode.
func withMode(t *testing.T, m Mode, f func()) {
	t.Helper()
	prev := CurrentMode()
	SetMode(m)
	defer SetMode(prev)
	f()
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func approxEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

func TestModeSwitch(t *testing.T) {
	prev := CurrentMode()
	defer SetMode(prev)
	SetMode(Scalar)
	if CurrentMode() != Scalar {
		t.Fatal("SetMode(Scalar) not observed")
	}
	SetMode(Vector)
	if CurrentMode() != Vector {
		t.Fatal("SetMode(Vector) not observed")
	}
	if Vector.String() != "vector" || Scalar.String() != "scalar" || Mode(99).String() != "unknown" {
		t.Error("Mode.String values wrong")
	}
}

func TestDotVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 3, 15, 16, 17, 31, 32, 100, 1024, 1000} {
		a := randSlice(rng, n)
		b := randSlice(rng, n)
		v := float64(ForMode(Vector).Dot(a, b))
		s := float64(ForMode(Scalar).Dot(a, b))
		if !approxEqual(v, s, 1e-4) {
			t.Errorf("n=%d: DotVec=%g DotScalar=%g", n, v, s)
		}
	}
}

func TestDotDispatch(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	want := float32(32)
	withMode(t, Vector, func() {
		if got := Active().Dot(a, b); got != want {
			t.Errorf("vector Dot = %g, want %g", got, want)
		}
	})
	withMode(t, Scalar, func() {
		if got := Active().Dot(a, b); got != want {
			t.Errorf("scalar Dot = %g, want %g", got, want)
		}
	})
}

// expectPanic runs f and fails the test unless it panics.
func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestDotLengthMismatchPanics: a table entry handed a second operand too
// short for the first panics on every tier instead of reading past it (24
// elements against 16 puts the overrun inside the assembly tiers' vector
// body, not their scalar tail).
func TestDotLengthMismatchPanics(t *testing.T) {
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		expectPanic(t, m.String()+" Dot", func() { ks.Dot(make([]float32, 24), make([]float32, 16)) })
		expectPanic(t, m.String()+" Axpy", func() { ks.Axpy(1, make([]float32, 24), make([]float32, 16)) })
		expectPanic(t, m.String()+" Add", func() { ks.Add(make([]float32, 24), make([]float32, 16)) })
	}
}

func TestAxpyVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 15, 16, 17, 33, 128, 129} {
		x := randSlice(rng, n)
		y0 := randSlice(rng, n)
		alpha := float32(rng.NormFloat64())

		yv := append([]float32(nil), y0...)
		ForMode(Vector).Axpy(alpha, x, yv)
		ys := append([]float32(nil), y0...)
		ForMode(Scalar).Axpy(alpha, x, ys)
		for i := range yv {
			if !approxEqual(float64(yv[i]), float64(ys[i]), 1e-5) {
				t.Errorf("n=%d i=%d: vec=%g scalar=%g", n, i, yv[i], ys[i])
			}
		}
	}
}

func TestPropertyDotEquivalence(t *testing.T) {
	f := func(a, b []float32) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		for i := range a { // tame magnitudes so float reassociation is benign
			a[i] = clamp(a[i])
			b[i] = clamp(b[i])
		}
		return approxEqual(float64(ForMode(Vector).Dot(a, b)), float64(ForMode(Scalar).Dot(a, b)), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func clamp(x float32) float32 {
	if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
		return 0
	}
	if x > 100 {
		return 100
	}
	if x < -100 {
		return -100
	}
	return x
}

func TestPropertyAxpyEquivalence(t *testing.T) {
	f := func(raw []float32, alphaRaw float32) bool {
		n := len(raw) / 2
		x := make([]float32, n)
		y0 := make([]float32, n)
		for i := 0; i < n; i++ {
			x[i] = clamp(raw[i])
			y0[i] = clamp(raw[n+i])
		}
		alpha := clamp(alphaRaw)
		yv := append([]float32(nil), y0...)
		ys := append([]float32(nil), y0...)
		ForMode(Vector).Axpy(alpha, x, yv)
		ForMode(Scalar).Axpy(alpha, x, ys)
		for i := range yv {
			if !approxEqual(float64(yv[i]), float64(ys[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdamEquivalence(t *testing.T) {
	p := NewAdamParams(0.01, 0.9, 0.999, 1e-8, 2)
	f := func(raw []float32) bool {
		n := len(raw) / 2
		w0 := make([]float32, n)
		g := make([]float32, n)
		for i := 0; i < n; i++ {
			w0[i] = clamp(raw[i])
			g[i] = clamp(raw[n+i])
		}
		wv := append([]float32(nil), w0...)
		ws := append([]float32(nil), w0...)
		mv, vv := make([]float32, n), make([]float32, n)
		ms, vs := make([]float32, n), make([]float32, n)
		ForMode(Vector).AdamStep(wv, mv, vv, g, p)
		ForMode(Scalar).AdamStep(ws, ms, vs, g, p)
		for i := range wv {
			if wv[i] != ws[i] { // identical math, element-local: bit-equal
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSumAndScaleAndAdd(t *testing.T) {
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			x := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
			y := append([]float32(nil), x...)
			Active().Scale(2, y)
			for i := range y {
				if y[i] != 2*x[i] {
					t.Errorf("%v Scale[%d] = %g", m, i, y[i])
				}
			}
			z := append([]float32(nil), x...)
			Active().Add(x, z)
			for i := range z {
				if z[i] != 2*x[i] {
					t.Errorf("%v Add[%d] = %g", m, i, z[i])
				}
			}
		})
	}
}

func TestFillZero(t *testing.T) {
	x := make([]float32, 37)
	for i := range x {
		x[i] = 3.5
	}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		x    []float32
		want int
	}{
		{[]float32{1}, 0},
		{[]float32{1, 3, 2}, 1},
		{[]float32{-5, -2, -9}, 1},
		{[]float32{2, 2, 2}, 0},    // ties -> lowest index
		{[]float32{0, 1, 1, 0}, 1}, // tie inside
		{make([]float32, 64), 0},   // all zero
		{append(make([]float32, 40), 7), 40},
	}
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			for _, c := range cases {
				if got := Active().ArgMax(c.x); got != c.want {
					t.Errorf("%v ArgMax(%v) = %d, want %d", m, c.x, got, c.want)
				}
			}
		})
	}
}

func TestPropertyArgMaxEquivalence(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float32, len(raw))
		for i := range raw {
			x[i] = clamp(raw[i])
		}
		return argMaxVec(x) == argMaxScalar(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArgMaxEmptyPanics(t *testing.T) {
	for _, m := range AvailableModes() {
		expectPanic(t, m.String()+" ArgMax(empty)", func() { ForMode(m).ArgMax(nil) })
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float32{-3, -1, -2}); got != -1 {
		t.Errorf("Max = %g, want -1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Max(empty) did not panic")
		}
	}()
	Max(nil)
}

// referenceAdam is an independent scalar ADAM implementation used to verify
// both kernel modes.
func referenceAdam(w, m, v, g []float64, lr, b1, b2, eps float64, t int64) {
	bc1 := 1 - math.Pow(b1, float64(t))
	bc2 := 1 - math.Pow(b2, float64(t))
	corr := lr * math.Sqrt(bc2) / bc1
	for i := range w {
		m[i] = b1*m[i] + (1-b1)*g[i]
		v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
		w[i] -= corr * m[i] / (math.Sqrt(v[i]) + eps)
	}
}

func TestAdamStepAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	n := 67 // not a multiple of 16
	w32 := randSlice(rng, n)
	m32 := make([]float32, n)
	v32 := make([]float32, n)

	w64 := make([]float64, n)
	m64 := make([]float64, n)
	v64 := make([]float64, n)
	for i := range w32 {
		w64[i] = float64(w32[i])
	}

	lr, b1, b2, eps := 0.001, 0.9, 0.999, 1e-8
	for step := int64(1); step <= 5; step++ {
		g32 := randSlice(rng, n)
		g64 := make([]float64, n)
		for i := range g32 {
			g64[i] = float64(g32[i])
		}
		p := NewAdamParams(lr, b1, b2, eps, step)
		ForMode(Vector).AdamStep(w32, m32, v32, g32, p)
		referenceAdam(w64, m64, v64, g64, lr, b1, b2, eps, step)
	}
	// eps placement differs microscopically between the float32 fused form
	// and the float64 reference; allow a loose bound.
	for i := range w32 {
		if !approxEqual(float64(w32[i]), w64[i], 1e-3) {
			t.Errorf("w[%d] = %g, reference %g", i, w32[i], w64[i])
		}
	}
}

func TestAdamVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	n := 131
	w0 := randSlice(rng, n)
	g := randSlice(rng, n)
	p := NewAdamParams(0.01, 0.9, 0.999, 1e-8, 3)

	wv := append([]float32(nil), w0...)
	mv := make([]float32, n)
	vv := make([]float32, n)
	ForMode(Vector).AdamStep(wv, mv, vv, g, p)

	ws := append([]float32(nil), w0...)
	ms := make([]float32, n)
	vs := make([]float32, n)
	ForMode(Scalar).AdamStep(ws, ms, vs, g, p)

	for i := range wv {
		if wv[i] != ws[i] || mv[i] != ms[i] || vv[i] != vs[i] {
			t.Errorf("i=%d: vec (%g,%g,%g) scalar (%g,%g,%g)",
				i, wv[i], mv[i], vv[i], ws[i], ms[i], vs[i])
		}
	}
}

func TestAdamStepDispatchAndPanic(t *testing.T) {
	p := NewAdamParams(0.1, 0.9, 0.999, 1e-8, 1)
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			w := []float32{1}
			Active().AdamStep(w, []float32{0}, []float32{0}, []float32{1}, p)
			if w[0] >= 1 {
				t.Errorf("%v AdamStep did not descend: w=%g", m, w[0])
			}
		})
	}
	// A moment vector shorter than the weights panics on every tier.
	for _, m := range AvailableModes() {
		expectPanic(t, m.String()+" AdamStep with a short m", func() {
			ForMode(m).AdamStep(make([]float32, 24), make([]float32, 16), make([]float32, 24), make([]float32, 24), p)
		})
	}
}

func TestDotBF16Both(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			n := 53
			a := bf16.FromSlice(randSlice(rng, n))
			b := bf16.FromSlice(randSlice(rng, n))
			got := float64(Active().DotBF16(a, b))
			want := float64(ForMode(Scalar).Dot(bf16.ToSlice(a), bf16.ToSlice(b)))
			if !approxEqual(got, want, 1e-4) {
				t.Errorf("%v DotBF16=%g want %g", m, got, want)
			}
		})
	}
}

func TestAxpyBF16(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for _, m := range []Mode{Vector, Scalar} {
		withMode(t, m, func() {
			n := 37
			x := bf16.FromSlice(randSlice(rng, n))
			y := randSlice(rng, n)
			want := append([]float32(nil), y...)
			ForMode(Scalar).Axpy(0.5, bf16.ToSlice(x), want)
			Active().AxpyBF16(0.5, x, y)
			for i := range y {
				if !approxEqual(float64(y[i]), float64(want[i]), 1e-5) {
					t.Errorf("%v AxpyBF16[%d]=%g want %g", m, i, y[i], want[i])
				}
			}
		})
	}
}

func TestAdamStepBF16Descends(t *testing.T) {
	n := 24
	w := make([]bf16.BF16, n)
	for i := range w {
		w[i] = bf16.FromFloat32(1)
	}
	m := make([]float32, n)
	v := make([]float32, n)
	g := make([]float32, n)
	for i := range g {
		g[i] = 1 // positive gradient => weights must decrease
	}
	p := NewAdamParams(0.01, 0.9, 0.999, 1e-8, 1)
	Active().AdamStepBF16(w, m, v, g, p)
	for i := range w {
		if w[i].Float32() >= 1 {
			t.Fatalf("w[%d]=%g did not descend", i, w[i].Float32())
		}
	}
}

// TestBF16MismatchPanics: the mixed-precision entries panic on a second
// operand too short for the first, on every tier.
func TestBF16MismatchPanics(t *testing.T) {
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		expectPanic(t, m.String()+" DotBF16", func() { ks.DotBF16(make([]bf16.BF16, 24), make([]bf16.BF16, 16)) })
		expectPanic(t, m.String()+" AxpyBF16", func() { ks.AxpyBF16(1, make([]bf16.BF16, 24), make([]float32, 16)) })
		expectPanic(t, m.String()+" AdamStepBF16", func() {
			ks.AdamStepBF16(make([]bf16.BF16, 24), make([]float32, 16), make([]float32, 24), make([]float32, 24), AdamParams{})
		})
	}
}

// TestSquaredNorm: a squared norm is the Dot entry with one slice as both
// operands, which every tier must accept.
func TestSquaredNorm(t *testing.T) {
	for _, m := range AvailableModes() {
		x := []float32{3, 4}
		if got := ForMode(m).Dot(x, x); got != 25 {
			t.Errorf("%v Dot(x, x) = %g, want 25", m, got)
		}
	}
}

// TestScaleAccumIsAxpy: Algorithm 2's column step — broadcast one non-zero,
// accumulate a scaled weight column — is the Axpy entry (it had a table entry
// of its own, ScaleAccum, that pointed at the same functions).
func TestScaleAccumIsAxpy(t *testing.T) {
	for _, m := range AvailableModes() {
		x := []float32{1, 2, 3}
		y := []float32{10, 20, 30}
		ForMode(m).Axpy(2, x, y)
		want := []float32{12, 24, 36}
		for i := range y {
			if y[i] != want[i] {
				t.Errorf("%v Axpy[%d] = %g, want %g", m, i, y[i], want[i])
			}
		}
	}
}
