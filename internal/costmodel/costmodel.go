// Package costmodel predicts one optimized SLIDE training step on a CPU with
// a three-term roofline: a step decomposes into phases, each characterized
// by multiply-accumulate count, DRAM traffic, and random cache-line
// touches; a phase takes max(compute, bandwidth, latency) time. The
// benchmark prints the prediction next to the measured step
// (costmodel.train_step_pred_ms, costmodel.train_step_measured_over_pred);
// it is a reference line for attribution, not a source of claimed numbers.
//
// The memory terms follow the paper's §4.1 analysis of the coalesced
// layout: a batch's touches to the same weight row are served by cache after
// one DRAM stream, so traffic scales with the expected number of *distinct*
// rows per batch.
package costmodel

import (
	"math"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// Calibration constants — the model's only free parameters, all physically
// interpretable.
const (
	cpuFlopUtil = 0.30  // fraction of peak vector FLOPs on irregular code
	cpuBWUtil   = 0.60  // fraction of peak DRAM bandwidth on mixed streams
	hyperBoost  = 1.30  // throughput gain from 2-way SMT (§4.1.1)
	dramLatency = 80e-9 // seconds per uncovered random DRAM access
	mlp         = 10    // outstanding misses per core (latency hiding)
	avgBucket   = 16    // mean retrieved candidates per table query
	hashOpCost  = 4.0   // flops-equivalent per hash-map operation

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

// Workload carries the statistics that determine the work. Counts are over
// Samples, which the step functions split into batches of BatchSize.
type Workload struct {
	Samples    int
	FeatureNNZ float64 // mean non-zeros per sample
	Input      int     // feature dimensionality
	Hidden     int
	Output     int
	// MeanActive is the mean output-layer active-set size per sample.
	MeanActive float64
	BatchSize  int
	// L and K describe the hash structure.
	L, K int
	// RebuildPeriod is the mean batches between table rebuilds.
	RebuildPeriod float64
}

// System describes the element widths of the modeled implementation.
type System struct {
	// WeightBytes is 4 for FP32, 2 for BF16 weights.
	WeightBytes int
	// ActBytes is 4 for FP32 activations, 2 for BF16.
	ActBytes int
}

// OptimizedSLIDE returns the paper's fully optimized configuration for a
// platform (BF16 weights+activations only where supported).
func OptimizedSLIDE(p platform.Platform) System {
	if p.HasBF16 {
		return System{WeightBytes: 2, ActBytes: 2}
	}
	return System{WeightBytes: 4, ActBytes: 4}
}

// phase is one roofline component.
type phase struct {
	macs  float64 // multiply-accumulates
	bytes float64 // DRAM traffic in bytes
	rand  float64 // random cache-line touches (latency-bound)
}

// expectedDistinct returns the expected number of distinct items hit by
// `touches` uniform draws over `total` items (the batch-level weight-row
// reuse estimate).
func expectedDistinct(touches, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return total * (1 - math.Exp(-touches/total))
}

// phases decomposes the workload's Samples into roofline components.
func phases(w Workload, s System) []phase {
	n := float64(w.Samples)
	h := float64(w.Hidden)
	f := w.FeatureNNZ
	active := w.MeanActive
	wb := float64(s.WeightBytes)
	ab := float64(s.ActBytes)
	bs := float64(max(w.BatchSize, 1))
	batches := math.Ceil(n / bs)

	// Distinct weight rows/columns streamed per batch: every thread in the
	// batch reuses a row once it is cached.
	dOut := expectedDistinct(bs*active, float64(w.Output))
	dHid := expectedDistinct(bs*f, float64(w.Input))

	// Hidden forward (Algorithm 2): f·h MACs per sample; per batch the
	// touched columns stream once; batch data adds one random access per
	// sample.
	hidFwd := phase{
		macs:  n * f * h,
		bytes: batches*dHid*h*wb + n*f*8,
		rand:  n,
	}
	// Output forward (Algorithm 1): active·h MACs over one stream of the
	// batch's distinct active rows. The walk kernel holds h in registers for
	// a sample's whole active set, so h is traffic once per sample, never
	// per row; each row touch begins with a random line.
	outFwd := phase{
		macs:  n * active * h,
		bytes: batches*dOut*h*wb + n*h*ab,
		rand:  n * active * 0.3,
	}
	// Backward: the output walk moves three streams over the distinct
	// active rows — the weights read for ∇h, the gradient row read and
	// written — with h and ∇h register-resident across the list, so ∇h is
	// one store per sample; hidden column gradients mirror the forward
	// touch pattern.
	backward := phase{
		macs:  n * (2*active*h + f*h),
		bytes: batches*(dOut*h*(wb+2*4)+dHid*h*4) + n*h*4,
		rand:  n * active * 0.3,
	}
	// ADAM (§4.3.1): one fused pass over the distinct touched rows/columns
	// per batch.
	adam := phase{
		macs:  batches * (dOut + dHid) * h * 5,
		bytes: batches * (dOut*h*(wb+12) + dHid*h*16),
		rand:  batches * (dOut + dHid) * 0.1,
	}
	// Query: L random bucket reads per sample plus candidate dedup; a
	// fingerprint is K·L hash-map-style operations. Rebuild: every neuron
	// re-hashed and re-inserted once per RebuildPeriod batches.
	fp := float64(w.L*w.K) * hashOpCost
	rebuilds := batches / max(w.RebuildPeriod, 1)
	cand := float64(w.L) * avgBucket
	hashed := n + rebuilds*float64(w.Output)
	hash := phase{
		macs:  hashed*fp + n*cand*2 + rebuilds*float64(w.Output)*h,
		bytes: n*float64(w.L)*64 + rebuilds*float64(w.Output)*h*wb,
		rand:  n * float64(w.L),
	}
	return []phase{hidFwd, outFwd, backward, adam, hash}
}

// stepPhases converts the decomposition over Samples to one step.
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
	lanes := float64(p.VectorLanesF32) * float64(p.FMAPorts)
	if s.WeightBytes == 2 && p.HasBF16 {
		lanes *= 2 // AVX512-BF16 doubles lanes per instruction (§4.4)
	}
	smt := 1.0
	if p.ThreadsPerCore > 1 {
		smt = hyperBoost
	}
	flops := cores * p.ClockGHz * 1e9 * 2 * lanes * cpuFlopUtil * smt
	// A few cores cannot saturate the socket's DRAM channels: bandwidth
	// scales with the worker share until bwSaturationFrac of the cores are
	// streaming, then flattens — the term that caps sharded scaling on
	// bandwidth-bound phases.
	satCores := max(1.0, float64(p.Cores)*bwSaturationFrac)
	bw := p.DRAMGBs * 1e9 * cpuBWUtil * min(1, cores/satCores)
	// Latency-hiding: cores × outstanding misses, improved by SMT.
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
// count (network.Config.Shards): compute- and latency-bound phase terms
// divide across the workers, but DRAM bandwidth is a shared socket resource
// (saturating per bwSaturationFrac), and every phase pays a barrier whose
// cost grows with the worker count.
func ShardedStep(w Workload, s System, p platform.Platform, workers int) time.Duration {
	return stepTime(w, s, p, workers, true)
}
