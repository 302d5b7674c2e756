package costmodel

import (
	"math"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// amazonWorkload mirrors the paper's Amazon-670K setting (Table 1, §5.3):
// 490K samples, 75 non-zeros, hidden 128, 670K labels, batch 1024,
// DWTA K=6 L=400. Mean active-set size ~0.5% of the output layer, the
// sparsity regime SLIDE reports.
func amazonWorkload() Workload {
	return Workload{
		Samples: 490449, FeatureNNZ: 75, Input: 135909,
		Hidden: 128, Output: 670091,
		MeanActive: 3350, BatchSize: 1024,
		L: 400, K: 6, RebuildPeriod: 50,
	}
}

func TestTable2Shape(t *testing.T) {
	w := amazonWorkload()

	tfV100 := EstimateEpoch(w, FullSoftmax(), platform.V100)
	tfCLX := EstimateEpoch(w, FullSoftmax(), platform.CLX)
	tfCPX := EstimateEpoch(w, FullSoftmax(), platform.CPX)
	naiveCLX := EstimateEpoch(w, NaiveSLIDE(), platform.CLX)
	naiveCPX := EstimateEpoch(w, NaiveSLIDE(), platform.CPX)
	optCLX := EstimateEpoch(w, OptimizedSLIDE(platform.CLX), platform.CLX)
	optCPX := EstimateEpoch(w, OptimizedSLIDE(platform.CPX), platform.CPX)

	// Paper Table 2, Amazon-670K row: the ordering Opt-CPX < Opt-CLX <
	// Naive < TF-CPU, with TF-CPU within ~30% of V100 and Optimized SLIDE
	// several-fold faster than V100.
	if !(optCPX < optCLX) {
		t.Errorf("Opt CPX (%v) should beat Opt CLX (%v)", optCPX, optCLX)
	}
	if !(optCLX < naiveCLX) {
		t.Errorf("Opt CLX (%v) should beat Naive CLX (%v)", optCLX, naiveCLX)
	}
	if !(optCPX < naiveCPX) {
		t.Errorf("Opt CPX (%v) should beat Naive CPX (%v)", optCPX, naiveCPX)
	}
	if !(optCPX < tfV100 && optCLX < tfV100) {
		t.Errorf("Optimized SLIDE (%v/%v) should beat TF V100 (%v)", optCLX, optCPX, tfV100)
	}
	if !(naiveCLX < tfCLX && naiveCPX < tfCPX) {
		t.Errorf("Naive SLIDE should beat TF on the same CPU")
	}

	// Magnitudes: paper reports Opt-CPX 7.8x over V100, Opt-CLX 3.5x,
	// Opt vs Naive 4.4x/7.2x. Accept a generous band — the model must land
	// the right order of magnitude, not the exact figure.
	check := func(name string, got float64, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s speedup = %.2fx, want within [%g, %g]", name, got, lo, hi)
		}
	}
	check("OptCPX/V100", Speedup(tfV100, optCPX), 2, 40)
	check("OptCLX/V100", Speedup(tfV100, optCLX), 1.2, 20)
	check("OptCLX/NaiveCLX", Speedup(naiveCLX, optCLX), 1.5, 20)
	check("OptCPX/NaiveCPX", Speedup(naiveCPX, optCPX), 1.5, 25)
	check("OptCLX/TF-CLX", Speedup(tfCLX, optCLX), 1.5, 30)

	// TF on CPU is in the same ballpark as V100 (paper: 1.01x-1.27x slower).
	r := Speedup(tfV100, tfCLX)
	if r > 1.2 || r < 0.2 {
		t.Errorf("TF-CLX vs V100 ratio %.2f implausible (paper ~0.8)", 1/r)
	}
}

func TestTable4ShapeVectorization(t *testing.T) {
	w := amazonWorkload()
	on := OptimizedSLIDE(platform.CPX)
	off := on
	off.Vectorized = false
	tOn := EstimateEpoch(w, on, platform.CPX)
	tOff := EstimateEpoch(w, off, platform.CPX)
	s := Speedup(tOff, tOn)
	// Paper Table 4: AVX-512 buys 1.12x-1.22x (memory-bound workload).
	if s < 1.01 || s > 4 {
		t.Errorf("vectorization speedup %.2fx outside plausible band", s)
	}
}

func TestTable3ShapeBF16(t *testing.T) {
	w := amazonWorkload()
	full := OptimizedSLIDE(platform.CPX) // BF16 weights+acts on CPX
	none := full
	none.WeightBytes = 4
	none.ActBytes = 4
	tFull := EstimateEpoch(w, full, platform.CPX)
	tNone := EstimateEpoch(w, none, platform.CPX)
	s := Speedup(tNone, tFull)
	// Paper Table 3: BF16 both buys 1.28x on Amazon-670K.
	if s < 1.05 || s > 3 {
		t.Errorf("BF16 speedup %.2fx outside plausible band", s)
	}
	// On CLX (no BF16 hardware) OptimizedSLIDE must not claim BF16.
	if sys := OptimizedSLIDE(platform.CLX); sys.WeightBytes != 4 {
		t.Error("OptimizedSLIDE on CLX should stay FP32")
	}
}

func TestMemoryOptimizationShape(t *testing.T) {
	// §5.7: memory optimizations provide the dominant share of the 2-7x.
	w := amazonWorkload()
	opt := OptimizedSLIDE(platform.CLX)
	frag := opt
	frag.Coalesced = false
	s := Speedup(EstimateEpoch(w, frag, platform.CLX), EstimateEpoch(w, opt, platform.CLX))
	if s < 1.5 {
		t.Errorf("memory coalescing speedup %.2fx too small to explain §5.7", s)
	}
}

func TestHyperthreadBoost(t *testing.T) {
	w := amazonWorkload()
	on := OptimizedSLIDE(platform.CLX)
	off := on
	off.Hyperthread = false
	// Hyperthreading must never hurt and should help compute-bound phases.
	tOn := EstimateEpoch(w, on, platform.CLX)
	tOff := EstimateEpoch(w, off, platform.CLX)
	if tOn > tOff {
		t.Errorf("hyperthreading slowed the model down: %v vs %v", tOn, tOff)
	}
}

func TestPropertyMonotoneInWork(t *testing.T) {
	// More samples, more active neurons, or a wider layer must never make
	// the modeled epoch faster.
	base := amazonWorkload()
	sys := OptimizedSLIDE(platform.CLX)
	t0 := EstimateEpoch(base, sys, platform.CLX)

	more := base
	more.Samples *= 2
	if EstimateEpoch(more, sys, platform.CLX) <= t0 {
		t.Error("doubling samples did not increase modeled time")
	}
	wider := base
	wider.Hidden *= 2
	if EstimateEpoch(wider, sys, platform.CLX) <= t0 {
		t.Error("doubling hidden width did not increase modeled time")
	}
	denser := base
	denser.MeanActive *= 4
	if EstimateEpoch(denser, sys, platform.CLX) <= t0 {
		t.Error("quadrupling active set did not increase modeled time")
	}
}

func TestPropertyOptimizationsNeverHurt(t *testing.T) {
	// Each §4 optimization must be modeled as non-harmful on hardware that
	// supports it.
	w := amazonWorkload()
	for _, p := range []platform.Platform{platform.CLX, platform.CPX} {
		opt := OptimizedSLIDE(p)

		noVec := opt
		noVec.Vectorized = false
		if EstimateEpoch(w, opt, p) > EstimateEpoch(w, noVec, p) {
			t.Errorf("%s: vectorization modeled as harmful", p.Name)
		}
		frag := opt
		frag.Coalesced = false
		if EstimateEpoch(w, opt, p) > EstimateEpoch(w, frag, p) {
			t.Errorf("%s: coalescing modeled as harmful", p.Name)
		}
		if p.HasBF16 {
			fp32 := opt
			fp32.WeightBytes, fp32.ActBytes = 4, 4
			if EstimateEpoch(w, opt, p) > EstimateEpoch(w, fp32, p) {
				t.Errorf("%s: BF16 modeled as harmful on BF16 hardware", p.Name)
			}
		}
	}
}

func TestCPXDominatesCLX(t *testing.T) {
	// The 4-socket CPX must never be modeled slower than the 2-socket CLX
	// for the same system (more cores, more bandwidth, BF16).
	w := amazonWorkload()
	for _, sys := range []System{FullSoftmax(), NaiveSLIDE(), OptimizedSLIDE(platform.CLX)} {
		if EstimateEpoch(w, sys, platform.CPX) > EstimateEpoch(w, sys, platform.CLX) {
			t.Errorf("CPX modeled slower than CLX for %+v", sys)
		}
	}
}

func TestGPUAndEdgeCases(t *testing.T) {
	w := amazonWorkload()
	if EstimateEpoch(w, FullSoftmax(), platform.V100) <= 0 {
		t.Error("GPU estimate must be positive")
	}
	if Speedup(time.Second, 0) != 0 {
		t.Error("Speedup with zero denominator should be 0")
	}
	if platform.CLX.Threads() != 96 || platform.CPX.Threads() != 224 {
		t.Error("paper platform thread counts wrong")
	}
	if h := platform.Host(); h.Cores <= 0 {
		t.Error("host must report cores")
	}
}

func TestHostRooflineUsesDetectedLanes(t *testing.T) {
	// The same-hardware roofline row is parameterized by the detected lane
	// count: a hypothetical host with no vector unit (1 lane) must never be
	// modeled faster than the real detected host for a vectorized system.
	w := amazonWorkload()
	host := platform.Host()
	narrow := host
	narrow.VectorLanesF32 = 1
	sys := OptimizedSLIDE(host)
	if EstimateEpoch(w, sys, host) > EstimateEpoch(w, sys, narrow) {
		t.Errorf("detected-lane host (%d lanes) modeled slower than 1-lane host",
			host.VectorLanesF32)
	}
	// And the descriptor carries the detected lane count (or the portable
	// tier's 4-lane ILP equivalent when no vector extension was detected).
	if host.VectorLanesF32 != 4 && host.VectorLanesF32 != 8 && host.VectorLanesF32 != 16 {
		t.Errorf("host lanes = %d, want 4, 8 or 16", host.VectorLanesF32)
	}
}

// TestSimHashPricedAsMatvec: a SimHash fingerprint is K·L dots of width
// Hidden against the ±1 matrix, so the hash phase carries K·L·h MACs and
// K·L·h·4 bytes per hashed vector — every sample, and every output neuron
// once per rebuild. The bin-scan families keep their flat per-bit price.
func TestSimHashPricedAsMatvec(t *testing.T) {
	// The text8-s shape of the benchmark: one batch, a rebuild every 20.
	w := Workload{
		Samples: 256, FeatureNNZ: 1, Input: 5077, Hidden: 200, Output: 5077,
		MeanActive: 400, BatchSize: 256, L: 20, K: 7, RebuildPeriod: 20,
	}
	sys := OptimizedSLIDE(platform.CLX)
	binScan := phases(w, sys)
	w.SimHash = true
	matvec := phases(w, sys)

	hashed := 256 + 5077.0/20 // samples + rebuilt neurons per step
	lk, h := 140.0, 200.0
	last := len(matvec) - 1
	if got, want := matvec[last].macs-binScan[last].macs, hashed*lk*(h-hashOpCost); !near(got, want) {
		t.Errorf("SimHash adds %.0f MACs to the hash phase, want %.0f", got, want)
	}
	if got, want := matvec[last].bytes-binScan[last].bytes, hashed*lk*h*4; !near(got, want) {
		t.Errorf("SimHash adds %.0f bytes to the hash phase, want %.0f", got, want)
	}
	for i := 0; i < last; i++ {
		if matvec[i] != binScan[i] {
			t.Errorf("phase %d changed with the hash family", i)
		}
	}
}

// TestDWTAPricedAsGather: a DWTA fingerprint is one GatherArgMax over
// K·L·BinSize slots, so the hash phase carries that many compares and that
// many 4-byte gathered loads per hashed vector. The compares are counted as
// MACs, the one term EstimateEpoch divides by the lane count. DOPH (no
// BinSize) keeps the flat per-bin price.
func TestDWTAPricedAsGather(t *testing.T) {
	// The amazon-s shape of the benchmark: one batch, a rebuild every 20.
	w := Workload{
		Samples: 256, FeatureNNZ: 75, Input: 2718, Hidden: 128, Output: 13401,
		MeanActive: 60, BatchSize: 256, L: 32, K: 4, RebuildPeriod: 20,
	}
	sys := OptimizedSLIDE(platform.CLX)
	flat := phases(w, sys)
	w.BinSize = 8
	gather := phases(w, sys)

	hashed := 256 + 13401.0/20 // samples + rebuilt neurons per step
	lk, slots := 128.0, 1024.0
	last := len(gather) - 1
	if got, want := gather[last].macs-flat[last].macs, hashed*(slots-lk*hashOpCost); !near(got, want) {
		t.Errorf("DWTA adds %.0f compares to the hash phase, want %.0f", got, want)
	}
	if got, want := gather[last].bytes-flat[last].bytes, hashed*slots*4; !near(got, want) {
		t.Errorf("DWTA adds %.0f gathered bytes to the hash phase, want %.0f", got, want)
	}
	for i := 0; i < last; i++ {
		if gather[i] != flat[i] {
			t.Errorf("phase %d changed with the hash family", i)
		}
	}
}

// TestRowWalkPricedRegisterResident: the output layer's walks hold the dense
// operand in registers for a sample's whole active set, so growing the
// active set adds row streams only — one for the forward (the weights),
// three for the backward (weights read, gradient read and written) — and not
// a byte of h or ∇h traffic, which stays one vector per sample.
func TestRowWalkPricedRegisterResident(t *testing.T) {
	// The text8-s shape, with an output layer wide enough that every active
	// row of the batch is distinct (to a part in 10^7; hence the tolerance):
	// the streams then scale with MeanActive.
	w := Workload{
		Samples: 256, FeatureNNZ: 1, Input: 5077, Hidden: 200, Output: 1 << 40,
		MeanActive: 400, BatchSize: 256, L: 20, K: 7, SimHash: true, RebuildPeriod: 20,
	}
	sys := System{Sampled: true, Vectorized: true, Coalesced: true, WeightBytes: 4, ActBytes: 4}
	base := phases(w, sys)
	w.MeanActive = 700
	wider := phases(w, sys)

	const fwd, bwd = 1, 2 // phases' order: hidden fwd, output fwd, backward, adam, hash
	n, h, extraRows := 256.0, 200.0, 256*300.0
	if got, want := wider[fwd].bytes-base[fwd].bytes, extraRows*h*4; !within(got, want, 1e-3) {
		t.Errorf("300 more active rows add %.0f forward bytes, want one weight stream = %.0f", got, want)
	}
	if got, want := wider[bwd].bytes-base[bwd].bytes, 3*extraRows*h*4; !within(got, want, 1e-3) {
		t.Errorf("300 more active rows add %.0f backward bytes, want three row streams = %.0f", got, want)
	}
	if got, want := base[fwd].bytes-n*400*h*4, n*h*4; !within(got, want, 1e-3) {
		t.Errorf("forward charges %.0f bytes beyond its row stream, want h once per sample = %.0f", got, want)
	}
	hidden := expectedDistinct(n, 5077) * h * 4
	if got, want := base[bwd].bytes-3*n*400*h*4-hidden, n*h*4; !within(got, want, 1e-3) {
		t.Errorf("backward charges %.0f bytes beyond its row and column streams, want ∇h once per sample = %.0f", got, want)
	}
}

func near(a, b float64) bool { return within(a, b, 1e-9) }

func within(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Abs(b) }
