// Package costmodel estimates per-epoch training time on the paper's
// platforms with a three-term roofline: an epoch decomposes into phases,
// each characterized by multiply-accumulate count, DRAM traffic, and random
// cache-line touches; a phase takes max(compute, bandwidth, latency) time.
// This is the substitution for the CLX/CPX/V100 hardware we cannot run on
// (DESIGN.md): it reproduces the *ratios* of Table 2 and the bar chart of
// Figure 6 — who wins and by roughly what factor — not absolute wall-clock.
//
// The memory terms encode the paper's §4.1 analysis directly: with the
// coalesced layout, a batch's touches to the same weight row are served by
// cache after one DRAM stream, so traffic scales with the expected number of
// *distinct* rows per batch; with the fragmented layout every touch pays its
// own trip plus partially wasted cache lines. Hyper-threading (§4.1.1)
// enters as extra latency-hiding for the random-access term.
package costmodel

import (
	"math"
	"time"

	"github.com/slide-cpu/slide/internal/platform"
)

// Calibration constants — the model's only free parameters, all physically
// interpretable.
const (
	cpuFlopUtil   = 0.30  // fraction of peak vector FLOPs on irregular code
	denseFlopUtil = 0.65  // dense matmul efficiency (blocked BLAS-style code)
	cpuBWUtil     = 0.60  // fraction of peak DRAM bandwidth on mixed streams
	gpuFlopUtil   = 0.45  // dense matmul efficiency without tensor cores
	gpuBWUtil     = 0.70  // GPU effective bandwidth fraction
	hyperBoost    = 1.30  // throughput gain from 2-way SMT (§4.1.1)
	dramLatency   = 80e-9 // seconds per uncovered random DRAM access
	mlp           = 10    // outstanding misses per core (latency hiding)
	lineWaste     = 1.5   // fragmented layouts drag partially unused lines
	// fragReuseCap bounds how much worse fragmented weight traffic gets
	// versus coalesced: fragmentation destroys spatial locality (adjacent
	// vectors no longer share cache lines or prefetch trains) but same-row
	// temporal reuse within a batch survives.
	fragReuseCap = 3.0
	avgBucket    = 16  // mean retrieved candidates per table query
	hashOpCost   = 4.0 // flops-equivalent per hash-map operation
)

// Workload carries the statistics that determine an epoch's work. All
// counts are per epoch unless noted.
type Workload struct {
	Samples    int
	FeatureNNZ float64 // mean non-zeros per sample
	Input      int     // feature dimensionality
	Hidden     int
	Output     int
	// MeanActive is the mean output-layer active-set size per sample
	// (ignored for the full-softmax baseline, which uses Output).
	MeanActive float64
	BatchSize  int
	// L and K describe the hash structure (zero for full softmax).
	L, K int
	// SimHash marks the signed-random-projection family, whose fingerprint
	// is a K·L × Hidden matrix-vector product rather than K·L bin scans.
	SimHash bool
	// BinSize is the DWTA slots per bin: a fingerprint gathers and compares
	// K·L·BinSize values. Zero for the other families (DOPH keeps the flat
	// per-bin price).
	BinSize int
	// RebuildPeriod is the mean batches between table rebuilds.
	RebuildPeriod float64
}

// System describes the implementation variant being modeled.
type System struct {
	// Sampled is true for SLIDE (LSH-sampled softmax), false for the dense
	// baseline.
	Sampled bool
	// Vectorized selects SIMD kernels (AVX-512 on; Table 4's ablation).
	Vectorized bool
	// Coalesced selects the §4.1 memory layouts (off = naive fragmented).
	Coalesced bool
	// WeightBytes is 4 for FP32, 2 for BF16 weights.
	WeightBytes int
	// ActBytes is 4 for FP32 activations, 2 for BF16.
	ActBytes int
	// Hyperthread enables the SMT boost (§4.1.1).
	Hyperthread bool
}

// OptimizedSLIDE returns the paper's fully optimized configuration for a
// platform (BF16 weights+activations only where supported).
func OptimizedSLIDE(p platform.Platform) System {
	s := System{Sampled: true, Vectorized: true, Coalesced: true,
		WeightBytes: 4, ActBytes: 4, Hyperthread: true}
	if p.HasBF16 {
		s.WeightBytes = 2
		s.ActBytes = 2
	}
	return s
}

// NaiveSLIDE returns the original SLIDE configuration: OpenMP parallelism
// only — no vectorization, fragmented memory, FP32.
func NaiveSLIDE() System {
	return System{Sampled: true, Vectorized: false, Coalesced: false,
		WeightBytes: 4, ActBytes: 4, Hyperthread: true}
}

// FullSoftmax returns the dense baseline configuration (TF uses AVX and
// contiguous tensors).
func FullSoftmax() System {
	return System{Sampled: false, Vectorized: true, Coalesced: true,
		WeightBytes: 4, ActBytes: 4, Hyperthread: true}
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

// phases decomposes an epoch into roofline components.
func phases(w Workload, s System) []phase {
	n := float64(w.Samples)
	h := float64(w.Hidden)
	f := w.FeatureNNZ
	active := w.MeanActive
	if !s.Sampled {
		active = float64(w.Output)
	}
	wb := float64(s.WeightBytes)
	ab := float64(s.ActBytes)
	bs := float64(max(w.BatchSize, 1))
	batches := math.Ceil(n / bs)

	// Distinct weight rows/columns streamed per batch. The coalesced layout
	// lets every thread in the batch reuse a row once it is cached; the
	// fragmented layout pays per touch, with partially wasted lines.
	distinctOut := expectedDistinct(bs*active, float64(w.Output))
	distinctHid := expectedDistinct(bs*f, float64(w.Input))
	var dOut, dHid, waste float64
	if s.Coalesced {
		dOut, dHid, waste = distinctOut, distinctHid, 1
	} else {
		dOut = min(bs*active, fragReuseCap*distinctOut)
		dHid = min(bs*f, fragReuseCap*distinctHid)
		waste = lineWaste
	}

	// Hidden forward (Algorithm 2): f·h MACs per sample; per batch the
	// touched columns stream once (coalesced) or per touch (fragmented);
	// batch data adds one random access per sample (coalesced CSR) or per
	// non-zero (fragmented arrays).
	hidFwd := phase{
		macs:  n * f * h,
		bytes: batches*dHid*h*wb*waste + n*f*8*waste,
		rand:  pick(s.Coalesced, n, n*f),
	}
	// Output forward (Algorithm 1): active·h MACs over one stream of the
	// batch's distinct active rows. The walk kernel holds h in registers for
	// a sample's whole active set, so h is traffic once per sample, never
	// per row; each row touch begins with a random line.
	outFwd := phase{
		macs:  n * active * h,
		bytes: batches*dOut*h*wb*waste + n*h*ab,
		rand:  pick(s.Coalesced, n*active*0.3, n*active),
	}
	// Backward: the output walk moves three streams over the distinct
	// active rows — the weights read for ∇h, the gradient row read and
	// written — with h and ∇h register-resident across the list, so ∇h is
	// one store per sample; hidden column gradients mirror the forward
	// touch pattern.
	backward := phase{
		macs:  n * (2*active*h + f*h),
		bytes: batches*(dOut*h*(wb+2*4)+dHid*h*4)*waste + n*h*4,
		rand:  pick(s.Coalesced, n*active*0.3, n*active),
	}
	// ADAM (§4.3.1): one fused pass over the *distinct* touched rows/columns
	// per batch regardless of layout (the touched-set scan deduplicates);
	// fragmentation only costs wasted lines and random row starts here.
	adam := phase{
		macs:  batches * (distinctOut + distinctHid) * h * 5,
		bytes: batches * (distinctOut*h*(wb+12) + distinctHid*h*16) * waste,
		rand:  batches * (distinctOut + distinctHid) * pick(s.Coalesced, 0.1, 1),
	}
	ph := []phase{hidFwd, outFwd, backward, adam}

	if s.Sampled {
		// Query: L random bucket reads per sample plus candidate dedup;
		// rebuild: every neuron re-hashed and re-inserted. A fingerprint is
		// K·L hash-map-style operations for DOPH; for SimHash it is K·L dots
		// of width h against the ±1 matrix, K·L·h MACs over K·L·h·4 bytes;
		// for DWTA it is K·L·BinSize gathered 4-byte loads through the index
		// map and as many compares, which EstimateEpoch divides by the lane
		// count like any MAC (one bin per lane). Per sample and per rebuilt
		// neuron alike.
		lk := float64(w.L * w.K)
		rebuilds := batches / max(w.RebuildPeriod, 1)
		cand := float64(w.L) * avgBucket
		hashed := n + rebuilds*float64(w.Output)
		fpMacs, fpBytes := lk*hashOpCost, 0.0
		switch {
		case w.SimHash:
			fpMacs, fpBytes = lk*h, lk*h*4
		case w.BinSize > 0:
			slots := lk * float64(w.BinSize)
			fpMacs, fpBytes = slots, slots*4
		}
		hash := phase{
			macs:  hashed*fpMacs + n*cand*2 + rebuilds*float64(w.Output)*h,
			bytes: n*float64(w.L)*64 + rebuilds*float64(w.Output)*h*wb + hashed*fpBytes,
			rand:  n * float64(w.L),
		}
		ph = append(ph, hash)
	}
	return ph
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// EstimateEpoch returns the modeled epoch time for the system on the
// platform.
func EstimateEpoch(w Workload, s System, p platform.Platform) time.Duration {
	var total float64
	if p.Kind == platform.GPU {
		// Dense batch matmuls; massive thread-level parallelism hides
		// random-access latency, so only the first two roofline terms apply.
		for _, ph := range phases(w, s) {
			comp := 2 * ph.macs / (p.TFLOPSF32 * 1e12 * gpuFlopUtil)
			mem := ph.bytes / (p.HBMGBs * 1e9 * gpuBWUtil)
			total += max(comp, mem)
		}
		batches := math.Ceil(float64(w.Samples) / float64(max(w.BatchSize, 1)))
		total += batches * 20 * p.KernelLaunchUs * 1e-6 // ~20 kernels per step
		return time.Duration(total * float64(time.Second))
	}

	lanes := 1.0
	if s.Vectorized {
		lanes = float64(p.VectorLanesF32) * float64(p.FMAPorts)
		if s.WeightBytes == 2 && p.HasBF16 {
			lanes *= 2 // AVX512-BF16 doubles lanes per instruction (§4.4)
		}
	}
	smt := 1.0
	if s.Hyperthread && p.ThreadsPerCore > 1 {
		smt = hyperBoost
	}
	util := cpuFlopUtil
	if !s.Sampled {
		util = denseFlopUtil // regular blocked matmuls run near peak
	}
	flops := float64(p.Cores) * p.ClockGHz * 1e9 * 2 * lanes * util * smt
	bw := p.DRAMGBs * 1e9 * cpuBWUtil
	// Latency-hiding: cores × outstanding misses, improved by SMT.
	latPerSec := float64(p.Cores) * mlp * smt / dramLatency

	for _, ph := range phases(w, s) {
		comp := 2 * ph.macs / flops
		mem := ph.bytes / bw
		lat := ph.rand / latPerSec
		total += max(comp, max(mem, lat))
	}
	return time.Duration(total * float64(time.Second))
}

// Speedup returns how much faster b is than a (a_time / b_time).
func Speedup(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
