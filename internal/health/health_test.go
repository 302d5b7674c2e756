package health

import (
	"math"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
)

func TestHealthCountNonFinite32(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		in   []float32
		want int64
	}{
		{nil, 0},
		{[]float32{0, 1, -2.5, 1e38, -1e-38}, 0},
		{[]float32{nan}, 1},
		{[]float32{inf, -inf}, 2},
		{[]float32{1, nan, 2, inf, 3}, 2},
	}
	for i, c := range cases {
		if got := CountNonFinite32(c.in); got != c.want {
			t.Errorf("case %d: CountNonFinite32 = %d, want %d", i, got, c.want)
		}
	}
	if got := FirstNonFinite32([]float32{1, 2, nan, inf}); got != 2 {
		t.Errorf("FirstNonFinite32 = %d, want 2", got)
	}
	if got := FirstNonFinite32([]float32{1, 2}); got != -1 {
		t.Errorf("FirstNonFinite32 on finite slice = %d, want -1", got)
	}
}

func TestHealthFirstNonFiniteBF16(t *testing.T) {
	vals := []float32{0, 1, float32(math.NaN()), float32(math.Inf(-1)), -3}
	bf := make([]bf16.BF16, len(vals))
	for i, v := range vals {
		bf[i] = bf16.FromFloat32(v)
	}
	if got := FirstNonFiniteBF16(bf); got != 2 {
		t.Errorf("FirstNonFiniteBF16 = %d, want 2", got)
	}
}

func TestHealthMonitorNonFinite(t *testing.T) {
	m := NewMonitor(Config{})
	if _, red := m.Observe(1, 2.0, 0); red {
		t.Fatal("healthy batch flagged red")
	}
	e, red := m.Observe(2, 2.0, 3)
	if !red || e.Kind != NonFinite || e.NonFinite != 3 || e.Step != 2 {
		t.Fatalf("non-finite count not flagged: %+v red=%v", e, red)
	}
	e, red = m.Observe(3, math.NaN(), 0)
	if !red || e.Kind != NonFinite {
		t.Fatalf("NaN loss not flagged: %+v red=%v", e, red)
	}
	e, red = m.Observe(4, math.Inf(1), 0)
	if !red || e.Kind != NonFinite {
		t.Fatalf("Inf loss not flagged: %+v red=%v", e, red)
	}
}

func TestHealthMonitorSpikeAndWarmup(t *testing.T) {
	m := NewMonitor(Config{Warmup: 5, Alpha: 0.5, SpikeFactor: 3})
	// During warmup even a big jump passes.
	if _, red := m.Observe(1, 100, 0); red {
		t.Fatal("warmup batch flagged red")
	}
	for s := int64(2); s <= 5; s++ {
		if _, red := m.Observe(s, 2.0, 0); red {
			t.Fatalf("warmup batch %d flagged red", s)
		}
	}
	// Warmed up near 2.0-ish EWMA; a modest wobble passes.
	if _, red := m.Observe(6, 4.0, 0); red {
		t.Fatal("modest wobble flagged red")
	}
	// A true spike trips.
	e, red := m.Observe(7, 1000, 0)
	if !red || e.Kind != LossSpike {
		t.Fatalf("spike not flagged: %+v red=%v", e, red)
	}
	// The red batch was not folded in: the same spike trips again.
	if _, red := m.Observe(8, 1000, 0); !red {
		t.Fatal("spike folded into EWMA despite red verdict")
	}
	// Reset re-enters warmup.
	m.Reset()
	if _, red := m.Observe(9, 1000, 0); red {
		t.Fatal("post-Reset batch flagged red during warmup")
	}
}

func TestHealthMonitorDivergence(t *testing.T) {
	m := NewMonitor(Config{DivergenceLoss: 50})
	// Fires immediately, warmup or not.
	e, red := m.Observe(1, 51, 0)
	if !red || e.Kind != Divergence {
		t.Fatalf("divergence not flagged: %+v red=%v", e, red)
	}
	if _, red := m.Observe(2, 49, 0); red {
		t.Fatal("loss under the ceiling flagged red")
	}
}

func TestHealthMonitorDeterministicReplay(t *testing.T) {
	// Two monitors fed the same sequence produce identical verdicts and
	// EWMA — the property the rollback replay depends on.
	seq := []float64{3, 2.5, 2.8, 2.2, 9.9, 2.0, 2.1}
	a, b := NewMonitor(Config{Warmup: 2}), NewMonitor(Config{Warmup: 2})
	for i, l := range seq {
		ea, ra := a.Observe(int64(i), l, 0)
		eb, rb := b.Observe(int64(i), l, 0)
		if ra != rb || ea != eb {
			t.Fatalf("step %d: verdicts diverged: %+v/%v vs %+v/%v", i, ea, ra, eb, rb)
		}
	}
	if a.EWMA() != b.EWMA() {
		t.Fatalf("EWMA diverged: %g vs %g", a.EWMA(), b.EWMA())
	}
}
