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
