package platform

import (
	"testing"

	"github.com/slide-cpu/slide/internal/cpufeat"
)

func TestHostPlatform(t *testing.T) {
	h := Host()
	if h.Cores <= 0 || h.ClockGHz <= 0 || h.DRAMGBs <= 0 {
		t.Errorf("host descriptor incomplete: %+v", h)
	}
}

func TestHostReportsDetectedFeatures(t *testing.T) {
	h := Host()
	f := cpufeat.Detect()
	// Lane width mirrors detection: 16 under AVX-512, 8 under AVX2-only,
	// and the portable tier's ILP-equivalent 4 when nothing was detected
	// (strictly below a real AVX2 host).
	want := f.VectorLanesF32()
	if want == 0 {
		want = 4
	}
	if h.VectorLanesF32 != want {
		t.Errorf("Host lanes = %d, detected %d", h.VectorLanesF32, want)
	}
	if h.HasBF16 != f.AVX512BF16 {
		t.Errorf("Host.HasBF16 = %v, detected %v", h.HasBF16, f.AVX512BF16)
	}
	if f.HasAVX512Tier() && h.VectorLanesF32 != 16 {
		t.Error("AVX-512 host must report 16 float32 lanes")
	}
}
