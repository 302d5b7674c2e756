package costmodel

import (
	"math"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// amazonWorkload mirrors the paper's Amazon-670K setting (Table 1, §5.3):
// 490K samples, 75 non-zeros, hidden 128, 670K labels, batch 1024,
// K=6 L=400. Mean active-set size ~0.5% of the output layer, the
// sparsity regime SLIDE reports.
func amazonWorkload() Workload {
	return Workload{
		Samples: 490449, FeatureNNZ: 75, Input: 135909,
		Hidden: 128, Output: 670091,
		MeanActive: 3350, BatchSize: 1024,
		L: 400, K: 6, RebuildPeriod: 50,
	}
}

// xeon is a fixed 48-core, 2-way SMT AVX-512 server descriptor (two
// 24-core sockets, 6 DDR4 channels each) without BF16; xeonBF16 is the
// same with AVX512-BF16.
var (
	xeon = platform.Platform{
		Name: "xeon", Cores: 48, ThreadsPerCore: 2, ClockGHz: 2.4,
		VectorLanesF32: 16, FMAPorts: 2, DRAMGBs: 2 * 6 * 23.5,
	}
	xeonBF16 = func() platform.Platform { p := xeon; p.HasBF16 = true; return p }()
)

func speedup(a, b time.Duration) float64 { return float64(a) / float64(b) }

func TestTable3ShapeBF16(t *testing.T) {
	w := amazonWorkload()
	full := OptimizedSLIDE(xeonBF16) // BF16 weights+acts
	none := System{WeightBytes: 4, ActBytes: 4}
	s := speedup(SingleStep(w, none, xeonBF16), SingleStep(w, full, xeonBF16))
	// Paper Table 3: BF16 both buys 1.28x on Amazon-670K.
	if s < 1.05 || s > 3 {
		t.Errorf("BF16 speedup %.2fx outside plausible band", s)
	}
	// Without BF16 hardware OptimizedSLIDE must not claim BF16.
	if sys := OptimizedSLIDE(xeon); sys.WeightBytes != 4 || sys.ActBytes != 4 {
		t.Error("OptimizedSLIDE without BF16 hardware should stay FP32")
	}
}

func TestTable4ShapeVectorization(t *testing.T) {
	w := amazonWorkload()
	sys := OptimizedSLIDE(xeon)
	scalar := xeon
	scalar.VectorLanesF32, scalar.FMAPorts = 1, 1
	// Paper Table 4: AVX-512 buys 1.12x-1.22x on the whole machine
	// (memory-bound workload).
	all := xeon.Cores
	if s := speedup(ShardedStep(w, sys, scalar, all), ShardedStep(w, sys, xeon, all)); s < 1.01 || s > 4 {
		t.Errorf("vectorization speedup %.2fx outside plausible band", s)
	}
}

func TestHyperthreadBoost(t *testing.T) {
	w := amazonWorkload()
	sys := OptimizedSLIDE(xeon)
	noSMT := xeon
	noSMT.ThreadsPerCore = 1
	// Hyperthreading must never hurt and should help compute-bound phases.
	for _, workers := range []int{1, 4, 48} {
		if on, off := ShardedStep(w, sys, xeon, workers), ShardedStep(w, sys, noSMT, workers); on > off {
			t.Errorf("W=%d: hyperthreading slowed the model down: %v vs %v", workers, on, off)
		}
	}
}

func TestPropertyMonotoneInWork(t *testing.T) {
	// More samples per step, more active neurons, or a wider layer must
	// never make the modeled step faster.
	base := amazonWorkload()
	sys := OptimizedSLIDE(xeon)
	t0 := SingleStep(base, sys, xeon)

	more := base
	more.Samples *= 2
	more.BatchSize *= 2
	if SingleStep(more, sys, xeon) <= t0 {
		t.Error("doubling the batch did not increase modeled step time")
	}
	wider := base
	wider.Hidden *= 2
	if SingleStep(wider, sys, xeon) <= t0 {
		t.Error("doubling hidden width did not increase modeled step time")
	}
	denser := base
	denser.MeanActive *= 4
	if SingleStep(denser, sys, xeon) <= t0 {
		t.Error("quadrupling active set did not increase modeled step time")
	}
}

func TestPropertyOptimizationsNeverHurt(t *testing.T) {
	// BF16, the one optimization System still selects, must be modeled as
	// non-harmful on hardware that supports it, at any worker count.
	w := amazonWorkload()
	opt := OptimizedSLIDE(xeonBF16)
	fp32 := System{WeightBytes: 4, ActBytes: 4}
	for _, workers := range []int{1, 2, 4, 8, 48} {
		if ShardedStep(w, opt, xeonBF16, workers) > ShardedStep(w, fp32, xeonBF16, workers) {
			t.Errorf("W=%d: BF16 modeled as harmful on BF16 hardware", workers)
		}
	}
}

func TestHostRooflineUsesDetectedLanes(t *testing.T) {
	// The benchmark's prediction is parameterized by the detected lane
	// count: a hypothetical host with no vector unit (1 lane) must never be
	// modeled faster than the real detected host.
	w := amazonWorkload()
	host := platform.Host()
	narrow := host
	narrow.VectorLanesF32 = 1
	sys := OptimizedSLIDE(host)
	if SingleStep(w, sys, host) > SingleStep(w, sys, narrow) {
		t.Errorf("detected-lane host (%d lanes) modeled slower than 1-lane host",
			host.VectorLanesF32)
	}
	// And the descriptor carries the detected lane count (or the portable
	// tier's 4-lane ILP equivalent when no vector extension was detected).
	if host.VectorLanesF32 != 4 && host.VectorLanesF32 != 8 && host.VectorLanesF32 != 16 {
		t.Errorf("host lanes = %d, want 4, 8 or 16", host.VectorLanesF32)
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
		MeanActive: 400, BatchSize: 256, L: 20, K: 7, RebuildPeriod: 20,
	}
	sys := System{WeightBytes: 4, ActBytes: 4}
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

func within(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Abs(b) }

// shardedSpeedup is the modeled step-time ratio of the single-worker
// reference to the W-worker sharded engine.
func shardedSpeedup(w Workload, s System, workers int) float64 {
	return speedup(SingleStep(w, s, xeon), ShardedStep(w, s, xeon, workers))
}

func TestShardedScalingCurveShape(t *testing.T) {
	w := amazonWorkload()
	s := OptimizedSLIDE(xeon)

	// The curve is monotone non-decreasing while phases still divide
	// (through W=16 on 48 cores); past bandwidth saturation the linearly
	// growing barrier cost may bend it down, but only marginally — a
	// collapse would mean the barrier term is mis-scaled.
	prev := 0.0
	peak := 0.0
	for _, workers := range []int{1, 2, 4, 8, 16} {
		sp := shardedSpeedup(w, s, workers)
		if sp < prev {
			t.Errorf("speedup dips at W=%d: %.3f after %.3f", workers, sp, prev)
		}
		prev = sp
		peak = max(peak, sp)
	}
	for _, workers := range []int{32, 48} {
		sp := shardedSpeedup(w, s, workers)
		peak = max(peak, sp)
		if sp < 0.9*peak {
			t.Errorf("speedup collapses at W=%d: %.3f vs peak %.3f", workers, sp, peak)
		}
	}

	// W=1 pays barrier overhead against the straight-line reference, so its
	// "speedup" must sit just below 1 — the honest cost of determinism.
	if sp := shardedSpeedup(w, s, 1); sp >= 1 || sp < 0.9 {
		t.Errorf("W=1 sharded speedup %.4f, want slightly under 1", sp)
	}

	// At the paper's batch size the 4-worker engine must reach 1.6x, and 48
	// workers must not exceed perfect linear scaling.
	if sp := shardedSpeedup(w, s, 4); sp < 1.6 {
		t.Errorf("W=4 sharded speedup %.2f, want >= 1.6", sp)
	}
	if sp := shardedSpeedup(w, s, 48); sp > 48 {
		t.Errorf("W=48 sharded speedup %.2f exceeds linear", sp)
	}
}

func TestShardingCrossoverBatch(t *testing.T) {
	w := amazonWorkload()
	s := OptimizedSLIDE(xeon)

	// The smallest power-of-two batch at which the 8-worker sharded step
	// outruns the single-worker step: below it, per-step barrier overhead
	// swamps the divided compute.
	bs := -1
	for b := 1; b <= 1<<20 && bs < 0; b *= 2 {
		at := w
		at.BatchSize = b
		if ShardedStep(at, s, xeon, 8) < SingleStep(at, s, xeon) {
			bs = b
		}
	}
	if bs <= 0 {
		t.Fatal("no crossover batch found — barrier cost modeled as unamortizable")
	}
	if bs > w.BatchSize {
		t.Errorf("crossover batch %d exceeds the paper's batch %d: sharding would never pay off", bs, w.BatchSize)
	}
}
