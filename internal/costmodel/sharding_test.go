package costmodel

import (
	"testing"

	"github.com/slide-cpu/slide/internal/platform"
)

// shardedSpeedup is the modeled step-time ratio of the single-worker
// reference to the W-worker sharded engine.
func shardedSpeedup(w Workload, s System, workers int) float64 {
	return Speedup(SingleStep(w, s, platform.CLX), ShardedStep(w, s, platform.CLX, workers))
}

func TestShardedScalingCurveShape(t *testing.T) {
	w := amazonWorkload()
	s := OptimizedSLIDE(platform.CLX)

	// The curve is monotone non-decreasing while phases still divide
	// (through W=16 on CLX); past bandwidth saturation the linearly growing
	// barrier cost may bend it down, but only marginally — a collapse would
	// mean the barrier term is mis-scaled.
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
	s := OptimizedSLIDE(platform.CLX)

	// The smallest power-of-two batch at which the 8-worker sharded step
	// outruns the single-worker step: below it, per-step barrier overhead
	// swamps the divided compute.
	bs := -1
	for b := 1; b <= 1<<20 && bs < 0; b *= 2 {
		at := w
		at.BatchSize = b
		if ShardedStep(at, s, platform.CLX, 8) < SingleStep(at, s, platform.CLX) {
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
