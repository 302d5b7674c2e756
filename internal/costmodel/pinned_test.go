package costmodel

import (
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// benchShapes are the Workload literals the benchmark's train probes hand
// the model (benchmark/probes_train.go), at the fixtures' shapes: one
// 256-sample batch per step, a rebuild every 20 steps.
var benchShapes = []struct {
	name string
	w    Workload
}{
	{"amazon-s", Workload{
		Samples: 256, FeatureNNZ: 75, Input: 2718, Hidden: 128, Output: 13401,
		MeanActive: 60, BatchSize: 256, L: 32, K: 4, RebuildPeriod: 20,
	}},
	{"text8-s", Workload{
		Samples: 256, FeatureNNZ: 1, Input: 5077, Hidden: 200, Output: 5077,
		MeanActive: 400, BatchSize: 256, L: 20, K: 7, RebuildPeriod: 20,
	}},
}

// pinHosts are fixed descriptors: a 2-core AVX-512 host without SMT (what
// platform.Host reports on a 2-core AVX-512 machine) and a 48-core SMT host with
// BF16, so the SMT and bfloat16-lane terms are both exercised.
var pinHosts = []platform.Platform{
	{Name: "pin-2c", Cores: 2, ThreadsPerCore: 1, ClockGHz: 2.5,
		VectorLanesF32: 16, FMAPorts: 1, DRAMGBs: 20},
	{Name: "pin-48c", Cores: 48, ThreadsPerCore: 2, ClockGHz: 2.4,
		VectorLanesF32: 16, FMAPorts: 2, HasBF16: true, DRAMGBs: 282},
}

// TestStepPredictionPinned pins the exact step predictions the benchmark's
// costmodel.train_step_pred_ms reads: SingleStep, and ShardedStep at
// W = 1, 2 and 4, for the float32 system the benchmark builds and for
// OptimizedSLIDE as returned. A literal that moves means the benchmark's
// prediction moved.
func TestStepPredictionPinned(t *testing.T) {
	want := map[string][4]time.Duration{
		"amazon-s/pin-2c/fp32":  {3998575, 4012575, 3950444, 3950444},
		"amazon-s/pin-2c/opt":   {3998575, 4012575, 3950444, 3950444},
		"amazon-s/pin-48c/fp32": {6676501, 6690501, 3366250, 1725125},
		"amazon-s/pin-48c/opt":  {5548420, 5562420, 2802210, 1443105},
		"text8-s/pin-2c/fp32":   {6605751, 6619751, 4071618, 4071618},
		"text8-s/pin-2c/opt":    {6605751, 6619751, 4071618, 4071618},
		"text8-s/pin-48c/fp32":  {4991156, 5005156, 2523578, 1303789},
		"text8-s/pin-48c/opt":   {4044595, 4058595, 2050297, 1067148},
	}
	for _, sh := range benchShapes {
		for _, p := range pinHosts {
			fp32 := OptimizedSLIDE(p)
			fp32.WeightBytes, fp32.ActBytes = 4, 4 // as the benchmark sets it
			for _, sys := range []struct {
				name string
				s    System
			}{{"fp32", fp32}, {"opt", OptimizedSLIDE(p)}} {
				key := sh.name + "/" + p.Name + "/" + sys.name
				got := [4]time.Duration{
					SingleStep(sh.w, sys.s, p),
					ShardedStep(sh.w, sys.s, p, 1),
					ShardedStep(sh.w, sys.s, p, 2),
					ShardedStep(sh.w, sys.s, p, 4),
				}
				if got != want[key] {
					t.Errorf("%s: [Single, W1, W2, W4] = %#v, want %#v", key, got, want[key])
				}
			}
		}
	}
}
