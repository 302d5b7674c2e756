package platform

import (
	"testing"

	"github.com/slide-cpu/slide/internal/cpufeat"
)

func TestPaperPlatformSpecs(t *testing.T) {
	// §3 of the paper: CLX is dual 24-core (96 threads with SMT), CPX is
	// 4x28-core (224 threads), both AVX-512; only CPX has BF16.
	if CLX.Cores != 48 || CLX.Threads() != 96 {
		t.Errorf("CLX cores/threads = %d/%d", CLX.Cores, CLX.Threads())
	}
	if CPX.Cores != 112 || CPX.Threads() != 224 {
		t.Errorf("CPX cores/threads = %d/%d", CPX.Cores, CPX.Threads())
	}
	if CLX.HasBF16 {
		t.Error("CLX must not report BF16 support")
	}
	if !CPX.HasBF16 {
		t.Error("CPX must report BF16 support")
	}
	if CLX.VectorLanesF32 != 16 || CPX.VectorLanesF32 != 16 {
		t.Error("AVX-512 platforms must report 16 f32 lanes")
	}
	if CLX.Kind != CPU || V100.Kind != GPU {
		t.Error("platform kinds wrong")
	}
	if V100.TFLOPSF32 <= 0 || V100.HBMGBs <= 0 {
		t.Error("V100 throughput attributes missing")
	}
	// CPX has strictly more aggregate bandwidth and compute than CLX.
	if CPX.DRAMGBs <= CLX.DRAMGBs {
		t.Error("CPX should out-bandwidth CLX (4 sockets vs 2)")
	}
}

func TestHostPlatform(t *testing.T) {
	h := Host()
	if h.Cores <= 0 || h.ClockGHz <= 0 || h.DRAMGBs <= 0 {
		t.Errorf("host descriptor incomplete: %+v", h)
	}
	if h.Kind != CPU {
		t.Error("host must be a CPU")
	}
}

func TestHostReportsDetectedFeatures(t *testing.T) {
	h := Host()
	f := cpufeat.Detect()
	// Lane width mirrors detection: 16 under AVX-512, 8 under AVX2-only,
	// and the portable tier's ILP-equivalent 4 when nothing was detected
	// (strictly below a real AVX2 host, preserving roofline ordering).
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
