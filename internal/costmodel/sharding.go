package costmodel

import (
	"math"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// Sharded-execution extension: the deterministic scatter-gather trainer
// (network.Config.Shards) runs each optimizer step as a fixed sequence of
// barrier-separated phases striped over a pinned worker pool. Its scaling
// law differs from HOGWILD's in two ways this model captures:
//
//   - compute- and latency-bound phase terms divide across the workers, but
//     DRAM bandwidth is a shared socket resource — a bandwidth-bound phase
//     stops scaling once enough cores are in flight to saturate the
//     channels, and
//   - every phase pays a synchronization barrier whose cost grows with the
//     worker count (serial wakeups through the pool channels), a per-step
//     constant that compute amortizes only at sufficient batch size.
//
// The crossover helpers answer the deployment question directly: at what
// batch size (or worker count) does the sharded engine's determinism come
// for free versus running single-threaded?

const (
	// barrierLatency is the modeled cost of one phase barrier per worker:
	// a channel send, a WaitGroup arrival, and a futex wake.
	barrierLatency = 2e-6
	// shardStepPhases counts the barrier-separated phases of one sharded
	// step (forward, sample, merge, output-grad, reduce, hidden-backward,
	// optimizer — the rebuild phase is amortized into the hash phase term).
	shardStepPhases = 7
	// bwSaturationFrac is the fraction of the socket's cores needed to
	// saturate its DRAM channels; beyond that, bandwidth-bound phases stop
	// scaling with workers.
	bwSaturationFrac = 0.5
)

// stepPhases converts the per-epoch roofline decomposition to one step.
func stepPhases(w Workload, s System) []phase {
	batches := math.Ceil(float64(w.Samples) / float64(max(w.BatchSize, 1)))
	ph := phases(w, s)
	for i := range ph {
		ph[i].macs /= batches
		ph[i].bytes /= batches
		ph[i].rand /= batches
	}
	return ph
}

// stepTime evaluates the CPU roofline for one step with an explicit worker
// budget. workers caps the exploitable cores; bandwidth saturates at
// bwSaturationFrac of the socket regardless of the cap.
func stepTime(w Workload, s System, p platform.Platform, workers int, barriers bool) time.Duration {
	cores := float64(min(max(workers, 1), p.Cores))
	lanes := 1.0
	if s.Vectorized {
		lanes = float64(p.VectorLanesF32) * float64(p.FMAPorts)
		if s.WeightBytes == 2 && p.HasBF16 {
			lanes *= 2
		}
	}
	smt := 1.0
	if s.Hyperthread && p.ThreadsPerCore > 1 {
		smt = hyperBoost
	}
	util := cpuFlopUtil
	if !s.Sampled {
		util = denseFlopUtil
	}
	flops := cores * p.ClockGHz * 1e9 * 2 * lanes * util * smt
	// A few cores cannot saturate the socket's DRAM channels: bandwidth
	// scales with the worker share until bwSaturationFrac of the cores are
	// streaming, then flattens — the term that caps sharded scaling on
	// bandwidth-bound phases.
	satCores := max(1.0, float64(p.Cores)*bwSaturationFrac)
	bw := p.DRAMGBs * 1e9 * cpuBWUtil * min(1, cores/satCores)
	latPerSec := cores * mlp * smt / dramLatency

	var total float64
	for _, ph := range stepPhases(w, s) {
		comp := 2 * ph.macs / flops
		mem := ph.bytes / bw
		lat := ph.rand / latPerSec
		total += max(comp, max(mem, lat))
	}
	if barriers {
		total += shardStepPhases * barrierLatency * float64(min(max(workers, 1), p.Cores))
	}
	return time.Duration(total * float64(time.Second))
}

// SingleStep estimates one single-worker optimizer step — the sharded
// engine's W=1 reference (no barrier cost is charged: with one worker the
// phase sequence degenerates to straight-line execution).
func SingleStep(w Workload, s System, p platform.Platform) time.Duration {
	return stepTime(w, s, p, 1, false)
}

// ShardedStep estimates one sharded optimizer step at the given worker
// count: phase terms divide across the workers (bandwidth saturating per
// bwSaturationFrac), and every phase pays its barrier.
func ShardedStep(w Workload, s System, p platform.Platform, workers int) time.Duration {
	return stepTime(w, s, p, workers, true)
}
