// Package repro_test holds the benchmark harness entry points: one
// testing.B benchmark per table and figure of the paper's evaluation
// (DESIGN.md carries the experiment index), plus kernel microbenchmarks for
// the §4.2/§4.3 hot loops. Benchmarks run at a tiny dataset scale so the
// suite completes on a laptop; `cmd/slide-bench` runs the same experiments
// at configurable scale with full reporting.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/costmodel"
	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/harness"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/slide"
)

// benchOpts keeps measured benchmark runs small and repeatable.
func benchOpts() harness.Options {
	return harness.Options{Scale: 1e-6, Epochs: 1, EvalPointsPerEpoch: 1,
		EvalSamples: 30, Workers: 2, Seed: 42}
}

func benchWorkload(b *testing.B) *harness.Workload {
	b.Helper()
	ws, err := harness.Workloads(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return ws[0] // Amazon-670K-like
}

// BenchmarkTable1DatasetGen regenerates Table 1's datasets (statistics
// derive from the generated data; see cmd/slide-bench -exp table1).
func BenchmarkTable1DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := dataset.Amazon670K(1e-6, uint64(i))
		train, _, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = train.Stats()
	}
}

// BenchmarkTable2EpochTime measures the three systems of Table 2's
// same-hardware comparison: dense full softmax, naive SLIDE, optimized
// SLIDE. Each iteration is one training epoch.
func BenchmarkTable2EpochTime(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	b.Run("FullSoftmax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunDense(w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveSLIDE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunSLIDE(w, harness.Naive, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OptimizedSLIDE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunSLIDE(w, harness.Optimized, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Roofline exercises the cost-model rows of Table 2 (the
// cross-platform estimates).
func BenchmarkTable2Roofline(b *testing.B) {
	w := costmodel.Workload{
		Samples: 490449, FeatureNNZ: 75, Input: 135909, Hidden: 128,
		Output: 670091, MeanActive: 3350, BatchSize: 1024,
		L: 400, K: 6, RebuildPeriod: 50,
	}
	for i := 0; i < b.N; i++ {
		_ = costmodel.EstimateEpoch(w, costmodel.OptimizedSLIDE(platform.CPX), platform.CPX)
		_ = costmodel.EstimateEpoch(w, costmodel.NaiveSLIDE(), platform.CLX)
		_ = costmodel.EstimateEpoch(w, costmodel.FullSoftmax(), platform.V100)
	}
}

// BenchmarkTable3BF16 measures the three §4.4 quantization modes on the
// optimized system (Table 3; software BF16 on the host, see EXPERIMENTS.md).
func BenchmarkTable3BF16(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	for _, m := range []struct {
		name string
		prec layer.Precision
	}{
		{"FP32", layer.FP32},
		{"BF16Act", layer.BF16Act},
		{"BF16Both", layer.BF16Both},
	} {
		b.Run(m.name, func(b *testing.B) {
			v := harness.Optimized
			v.Precision = m.prec
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunSLIDE(w, v, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Vectorization measures vector vs scalar kernels with
// everything else held at the optimized configuration (Table 4).
func BenchmarkTable4Vectorization(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	for _, m := range []struct {
		name string
		mode simd.Mode
	}{
		{"Vector", simd.Vector},
		{"Scalar", simd.Scalar},
	} {
		b.Run(m.name, func(b *testing.B) {
			v := harness.Optimized
			v.Kernels = m.mode
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunSLIDE(w, v, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6Convergence runs the convergence measurement loop that
// produces Figure 6's curves (one short tracked run per iteration).
func BenchmarkFigure6Convergence(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	opts.EvalPointsPerEpoch = 3
	for i := 0; i < b.N; i++ {
		r, err := harness.RunSLIDE(w, harness.Optimized, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Tracker.Points()) == 0 {
			b.Fatal("no convergence points")
		}
	}
}

// BenchmarkAblationMemoryLayout isolates the §4.1/§5.7 memory effect:
// parameter placement × batch layout with kernels held fixed.
func BenchmarkAblationMemoryLayout(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	for _, c := range []struct {
		name  string
		place layer.Placement
		lay   sparse.Layout
	}{
		{"Coalesced", layer.Contiguous, sparse.Coalesced},
		{"FragmentedParams", layer.Scattered, sparse.Coalesced},
		{"FragmentedData", layer.Contiguous, sparse.Fragmented},
		{"FullyFragmented", layer.Scattered, sparse.Fragmented},
	} {
		b.Run(c.name, func(b *testing.B) {
			v := harness.Optimized
			v.Placement = c.place
			v.BatchLayout = c.lay
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunSLIDE(w, v, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationThreads sweeps HOGWILD worker counts (§4.1.1).
func BenchmarkAblationThreads(b *testing.B) {
	w := benchWorkload(b)
	for _, nw := range []int{1, 2, 4} {
		b.Run(string(rune('0'+nw)), func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = nw
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunSLIDE(w, harness.Optimized, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Kernel microbenchmarks (§4.2/§4.3 hot loops) ---

func randF32(n int, seed uint64) []float32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// benchModeName renders a kernel mode as a benchmark sub-name, keeping the
// historical "Vector"/"Scalar" spellings from earlier baselines.
func benchModeName(m simd.Mode) string {
	switch m {
	case simd.Vector:
		return "Vector"
	case simd.Scalar:
		return "Scalar"
	case simd.AVX2:
		return "AVX2"
	case simd.AVX512:
		return "AVX512"
	}
	return m.String()
}

// benchKernelModes is the per-mode microbenchmark sweep: every tier this
// host supports, fastest first (assembly tiers appear only where CPUID
// reports them, so baselines recorded on different machines stay comparable
// row by row).
func benchKernelModes(b *testing.B, run func(b *testing.B, ks *simd.Kernels)) {
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		b.Run(benchModeName(m), func(b *testing.B) { run(b, ks) })
	}
}

// BenchmarkKernelDot measures Algorithm 1's inner loop (dense dot over a
// 128-wide hidden layer, the paper's dimension) under every kernel tier.
func BenchmarkKernelDot(b *testing.B) {
	x := randF32(128, 1)
	y := randF32(128, 2)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += ks.Dot(x, y)
		}
		sink = s
	})
}

// BenchmarkKernelAxpy measures Algorithm 2's inner loop (broadcast-multiply
// accumulate over a column).
func BenchmarkKernelAxpy(b *testing.B) {
	x := randF32(128, 3)
	y := randF32(128, 4)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.Axpy(0.5, x, y)
		}
	})
}

// BenchmarkKernelAdam measures the §4.3.1 fused optimizer pass.
func BenchmarkKernelAdam(b *testing.B) {
	n := 4096
	w := randF32(n, 5)
	m := make([]float32, n)
	v := make([]float32, n)
	g := randF32(n, 6)
	p := simd.NewAdamParams(1e-3, 0.9, 0.999, 1e-8, 3)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.AdamStep(w, m, v, g, p)
		}
	})
}

// walkShape is one active-set walk as the benchmark fixtures produce it:
// ids vectors of width dim listed out of rows.
type walkShape struct {
	name           string
	ids, dim, rows int
}

// The output layer's walks at the two training fixtures' shapes (mean active
// set × hidden width over the label count), and the hidden layer's (non-zeros
// per input × hidden width over the feature count).
var (
	outputWalks = []walkShape{{"amazon", 103, 128, 13401}, {"text8", 400, 200, 5077}}
	hiddenWalks = []walkShape{{"amazon", 50, 128, 2718}, {"text8", 1, 200, 5077}}
)

// walkMatrix builds a contiguous rows×dim matrix, as layer.Contiguous does.
func walkMatrix(s walkShape, seed uint64) [][]float32 {
	block := randF32(s.rows*s.dim, seed)
	m := make([][]float32, s.rows)
	for i := range m {
		m[i] = block[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
	}
	return m
}

// walkLists draws 64 duplicate-free id lists, cycled by the timed loops so
// that consecutive walks touch different vectors, as consecutive samples do.
func walkLists(s walkShape, seed uint64) [][]int32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	lists := make([][]int32, 64)
	for i := range lists {
		perm := rng.Perm(s.rows)[:s.ids]
		lists[i] = make([]int32, s.ids)
		for k, id := range perm {
			lists[i][k] = int32(id)
		}
	}
	return lists
}

// benchWalk times walk over the cycled lists and reports ns per listed
// vector next to ns/op.
func benchWalk(b *testing.B, lists [][]int32, walk func(ids []int32)) {
	vectors := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := lists[i%len(lists)]
		walk(ids)
		vectors += len(ids)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(vectors), "ns/row")
}

// BenchmarkKernelDotManyBias measures the active-set forward kernel. The
// first three groups are the historical ones (64 ids × 128 over 512
// cache-resident rows): the table entry, the per-row dispatching form it
// first replaced, and the entry per tier. The shape groups then put each
// tier's single-call "walk" beside a "perrow" loop of the same tier's Dot at
// the two training fixtures' shapes, where rows come from memory.
func BenchmarkKernelDotManyBias(b *testing.B) {
	const nRows, dim, nAct = 512, 128, 64
	rows := make([][]float32, nRows)
	for i := range rows {
		rows[i] = randF32(dim, uint64(i)+100)
	}
	bias := randF32(nRows, 31)
	h := randF32(dim, 32)
	rng := rand.New(rand.NewPCG(33, 1))
	ids := make([]int32, nAct)
	for i := range ids {
		ids[i] = int32(rng.IntN(nRows))
	}
	out := make([]float32, nAct)
	b.Run("Fused", func(b *testing.B) {
		ks := simd.Active()
		for i := 0; i < b.N; i++ {
			ks.DotManyBias(rows, bias, ids, h, out)
		}
		sink = out[0]
	})
	b.Run("PerRowDispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, id := range ids {
				out[k] = simd.Active().Dot(rows[id], h) + bias[id] // one mode load per row
			}
		}
		sink = out[0]
	})
	// Per-tier rows: the assembly-vs-portable acceptance ratio reads off
	// AVX512 (or AVX2) against Vector here.
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.DotManyBias(rows, bias, ids, h, out)
		}
		sink = out[0]
	})
	for _, s := range outputWalks {
		rows, bias, h := walkMatrix(s, 34), randF32(s.rows, 35), randF32(s.dim, 36)
		lists, out := walkLists(s, 37), make([]float32, s.ids)
		b.Run(s.name, func(b *testing.B) {
			benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
				b.Run("walk", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) { ks.DotManyBias(rows, bias, ids, h, out) })
				})
				b.Run("perrow", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						for k, id := range ids {
							out[k] = simd.Active().Dot(rows[id], h) + bias[id] // one mode load per row
						}
					})
				})
			})
		})
	}
}

// benchTiles times the exact walk's inner step at one fixture shape: the
// matrix is taken a block of rows at a time and each block is scored against
// every sample of the batch, by one tiled-walk call ("tile") or by the
// tier's per-row kernel once per (row, sample) ("perrow"), for 256- and
// 1,024-row blocks and batches of 1, 4 and 32. ns per (row, sample) is
// reported next to ns/op (one op is one pass over the matrix).
func benchTiles(b *testing.B, s walkShape, tile, perrow func(ks *simd.Kernels, ids []int32, batch int)) {
	all := layer.Iota(s.rows)
	pass := func(b *testing.B, block, batch int, score func(ids []int32, batch int)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < s.rows; lo += block {
				score(all[lo:min(lo+block, s.rows)], batch)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.rows*batch), "ns/row·sample")
	}
	b.Run(s.name, func(b *testing.B) {
		benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
			for _, block := range []int{256, 1024} {
				for _, batch := range []int{1, 4, 32} {
					b.Run(fmt.Sprintf("rows%d/batch%d", block, batch), func(b *testing.B) {
						b.Run("tile", func(b *testing.B) {
							pass(b, block, batch, func(ids []int32, n int) { tile(ks, ids, n) })
						})
						b.Run("perrow", func(b *testing.B) {
							pass(b, block, batch, func(ids []int32, n int) { perrow(ks, ids, n) })
						})
					})
				}
			}
		})
	})
}

// BenchmarkKernelDotManyBiasBatch measures the f32 tiled walk of the exact
// output pass against the per-row Dot loop it is defined as.
func BenchmarkKernelDotManyBiasBatch(b *testing.B) {
	const maxBatch = 32
	for _, s := range outputWalks {
		rows, bias := walkMatrix(s, 71), randF32(s.rows, 72)
		hs, outs := make([][]float32, maxBatch), make([][]float32, maxBatch)
		for i := range hs {
			hs[i], outs[i] = randF32(s.dim, 73+uint64(i)), make([]float32, 1024)
		}
		benchTiles(b, s,
			func(ks *simd.Kernels, ids []int32, n int) { ks.DotManyBiasBatch(rows, bias, ids, hs[:n], outs[:n]) },
			func(ks *simd.Kernels, ids []int32, n int) {
				for i, h := range hs[:n] {
					for k, id := range ids {
						outs[i][k] = ks.Dot(rows[id], h) + bias[id]
					}
				}
			})
	}
}

// BenchmarkKernelDotManyU8S8 measures the int8 tiled walk against the
// per-row DotU8S8 loop it is defined as (and replaced in quant.RowQ).
func BenchmarkKernelDotManyU8S8(b *testing.B) {
	const maxBatch = 32
	for _, s := range outputWalks {
		rng := rand.New(rand.NewPCG(81, 1))
		block := make([]int8, s.rows*s.dim)
		for i := range block {
			block[i] = int8(rng.IntN(255) - 127)
		}
		rows := make([][]int8, s.rows)
		for i := range rows {
			rows[i] = block[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
		}
		qas, accs := make([][]uint8, maxBatch), make([][]int32, maxBatch)
		for i := range qas {
			qas[i], accs[i] = make([]uint8, s.dim), make([]int32, 1024)
			for j := range qas[i] {
				qas[i][j] = uint8(rng.IntN(128))
			}
		}
		benchTiles(b, s,
			func(ks *simd.Kernels, ids []int32, n int) { ks.DotManyU8S8(rows, ids, qas[:n], accs[:n]) },
			func(ks *simd.Kernels, ids []int32, n int) {
				for i, qa := range qas[:n] {
					for k, id := range ids {
						accs[i][k] = ks.DotU8S8(qa, rows[id])
					}
				}
			})
	}
}

// BenchmarkKernelAxpyTwoMany measures the active-set backward walk (one call
// per sample: grad rows += gz·h, dh += Σ gz·w rows) against a "perrow" loop
// of the same tier's AxpyTwo, at the two training fixtures' shapes.
func BenchmarkKernelAxpyTwoMany(b *testing.B) {
	for _, s := range outputWalks {
		w, grad := walkMatrix(s, 51), walkMatrix(s, 52)
		h, dh, gz := randF32(s.dim, 53), make([]float32, s.dim), randF32(s.ids, 54)
		lists := walkLists(s, 55)
		b.Run(s.name, func(b *testing.B) {
			benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
				b.Run("walk", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						simd.Zero(dh)
						ks.AxpyTwoMany(gz, ids, h, grad, w, dh)
					})
				})
				b.Run("perrow", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						simd.Zero(dh)
						for k, id := range ids {
							ks.AxpyTwo(gz[k], h, grad[id], w[id], dh)
						}
					})
				})
			})
		})
	}
}

// BenchmarkKernelGatherScatterAxpy measures the hidden layer's two walks over
// one input's non-zeros — forward (h += Σ xⱼ·W[:,j]) and backward
// (∇W[:,j] += xⱼ·dh) — against "perrow" loops of the same tier's Axpy.
func BenchmarkKernelGatherScatterAxpy(b *testing.B) {
	for _, s := range hiddenWalks {
		cols := walkMatrix(s, 61)
		y, x, alpha := make([]float32, s.dim), randF32(s.dim, 62), randF32(s.ids, 63)
		lists := walkLists(s, 64)
		b.Run("gather/"+s.name, func(b *testing.B) {
			benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
				b.Run("walk", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						simd.Zero(y)
						ks.GatherAxpy(alpha, ids, cols, y)
					})
				})
				b.Run("perrow", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						simd.Zero(y)
						for k, id := range ids {
							ks.Axpy(alpha[k], cols[id], y)
						}
					})
				})
			})
		})
		b.Run("scatter/"+s.name, func(b *testing.B) {
			benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
				b.Run("walk", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) { ks.ScatterAxpy(alpha, ids, x, cols) })
				})
				b.Run("perrow", func(b *testing.B) {
					benchWalk(b, lists, func(ids []int32) {
						for k, id := range ids {
							ks.Axpy(alpha[k], x, cols[id])
						}
					})
				})
			})
		})
	}
}

// BenchmarkKernelAxpyTwo measures the tier's backward walk (grad += gz·h and
// dh += gz·w) against two independent axpy calls.
func BenchmarkKernelAxpyTwo(b *testing.B) {
	const dim = 128
	h := randF32(dim, 41)
	w := randF32(dim, 42)
	grad := randF32(dim, 43)
	dh := randF32(dim, 44)
	// The table entry is what the tier runs: the fused loop on the assembly
	// tiers, two axpys on the Go tiers (where this compares like with like —
	// the fused Go loop lost by ~20% and is deleted, DESIGN.md "Known
	// divergences").
	b.Run("AxpyTwo", func(b *testing.B) {
		ks := simd.Active()
		for i := 0; i < b.N; i++ {
			ks.AxpyTwo(0.5, h, grad, w, dh)
		}
	})
	b.Run("TwoAxpys", func(b *testing.B) {
		ks := simd.Active()
		for i := 0; i < b.N; i++ {
			ks.Axpy(0.5, h, grad)
			ks.Axpy(0.5, w, dh)
		}
	})
}

// BenchmarkKernelAdamZero measures the fused optimizer pass (ADAM step +
// gradient clear in one walk) against the two-pass form it replaced. The
// gradient is re-filled from gsrc each iteration (identical cost in both
// variants): with a permanently zero gradient the moments decay into
// denormals and the benchmark measures denormal arithmetic instead of the
// kernel.
func BenchmarkKernelAdamZero(b *testing.B) {
	n := 4096
	w := randF32(n, 51)
	m := make([]float32, n)
	v := make([]float32, n)
	g := make([]float32, n)
	gsrc := randF32(n, 52)
	p := simd.NewAdamParams(1e-3, 0.9, 0.999, 1e-8, 3)
	b.Run("Fused", func(b *testing.B) {
		ks := simd.Active()
		for i := 0; i < b.N; i++ {
			copy(g, gsrc)
			ks.AdamStepZero(w, m, v, g, p)
		}
	})
	b.Run("StepThenZero", func(b *testing.B) {
		ks := simd.Active()
		for i := 0; i < b.N; i++ {
			copy(g, gsrc)
			ks.AdamStep(w, m, v, g, p)
			simd.Zero(g)
		}
	})
}

// BenchmarkTrainStep measures one SLIDE TrainBatch end to end — the
// batch-granularity hot path the fused kernels and one-shot dispatch target.
// Shapes follow the Amazon-670K-like benchmark workload.
func BenchmarkTrainStep(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
	net, err := network.New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	train := w.Train
	it := train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
	batch, ok := it.Next()
	if !ok {
		b.Fatal("empty workload")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(batch)
	}
}

// BenchmarkTrainStepModes is BenchmarkTrainStep under each forced kernel
// tier — the end-to-end assembly-vs-portable acceptance ratio (AVX512 or
// AVX2 row against Vector). Each sub-benchmark builds a fresh network so no
// tier inherits another's warmed-up weights or table state.
func BenchmarkTrainStepModes(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	prev := simd.CurrentMode()
	defer simd.SetMode(prev)
	for _, m := range simd.AvailableModes() {
		b.Run(benchModeName(m), func(b *testing.B) {
			simd.SetMode(m)
			cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
			net, err := network.New(&cfg)
			if err != nil {
				b.Fatal(err)
			}
			it := w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
			batch, ok := it.Next()
			if !ok {
				b.Fatal("empty workload")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.TrainBatch(batch)
			}
		})
	}
}

// BenchmarkKernelDotBF16 measures the §4.4 mixed-precision dot product
// under every kernel tier.
func BenchmarkKernelDotBF16(b *testing.B) {
	x := bf16.FromSlice(randF32(128, 7))
	y := randF32(128, 8)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += ks.DotBF16F32(x, y)
		}
		sink = s
	})
}

// BenchmarkKernelPackBF16 measures the float32 -> bfloat16 conversion that
// feeds the §4.4 activation quantization (VCVTNEPS2BF16 on AVX512-BF16
// hosts, the software rounder elsewhere).
func BenchmarkKernelPackBF16(b *testing.B) {
	src := randF32(128, 9)
	dst := make([]bf16.BF16, 128)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.PackBF16(dst, src)
		}
	})
}

// tableShape is one table-set configuration the LSH benchmarks run at: the
// historical small one, where everything sits in L1/L2 whatever the layout,
// and the two the gated training workloads use.
type tableShape struct {
	name   string
	n, dim int
	hasher func() (lsh.Hasher, error)
}

// tableQueries is how many fingerprint vectors a probe benchmark cycles over.
const tableQueries = 1024

var tableShapes = []tableShape{
	{"small", 2000, 128, func() (lsh.Hasher, error) {
		return lsh.NewDWTA(lsh.DWTAConfig{K: 4, L: 16, Dim: 128, Seed: 3})
	}},
	{"amazon", 13401, 128, func() (lsh.Hasher, error) {
		return lsh.NewDWTA(lsh.DWTAConfig{K: 4, L: 32, Dim: 128, Seed: 3})
	}},
	{"text8", 5077, 200, func() (lsh.Hasher, error) {
		return lsh.NewSimHash(lsh.SimHashConfig{K: 7, L: 20, Dim: 200, Seed: 3})
	}},
}

// build returns the shape's table set rebuilt over random rows, and the rows.
func (sh tableShape) build(b *testing.B) (*lsh.TableSet, [][]float32) {
	h, err := sh.hasher()
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float32, sh.n)
	for i := range rows {
		rows[i] = randF32(sh.dim, uint64(i))
	}
	ts := lsh.NewTableSet(h, 128, lsh.FIFO, 5)
	ts.RebuildDense(sh.n, sh.dim, func(j int, _ []float32) []float32 { return rows[j] }, 2)
	return ts, rows
}

// fingerprints hashes tableQueries random activations: a probe benchmark
// cycles over them, so it pays the cache misses of probing different
// buckets every time, as sampling a stream of different samples does.
func (sh tableShape) fingerprints(ts *lsh.TableSet) [][]uint32 {
	hs := make([][]uint32, tableQueries)
	for q := range hs {
		hs[q] = make([]uint32, ts.Tables())
		ts.HashDense(randF32(sh.dim, uint64(1_000_000+q)), hs[q])
	}
	return hs
}

// BenchmarkTableRebuild measures the hash-table maintenance cost: a full
// rebuild over all output neurons (the §2 "hash tables update" path), on
// one worker and on two.
func BenchmarkTableRebuild(b *testing.B) {
	for _, sh := range tableShapes {
		ts, rows := sh.build(b)
		row := func(j int, _ []float32) []float32 { return rows[j] }
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", sh.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ts.RebuildDense(sh.n, sh.dim, row, workers)
				}
			})
		}
	}
}

// BenchmarkTableQuery measures one active-set retrieval in its closure form
// — QueryHashes visiting every id of the L buckets, Dedup.Seen on each —
// which is what the benchmark harness's lsh.query_us probe times.
func BenchmarkTableQuery(b *testing.B) {
	for _, sh := range tableShapes {
		ts, _ := sh.build(b)
		hs := sh.fingerprints(ts)
		dedup := lsh.NewDedup(sh.n)
		active := make([]int32, 0, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dedup.Begin()
				active = active[:0]
				ts.QueryHashes(hs[i%len(hs)], func(id int32) {
					if !dedup.Seen(id) {
						active = append(active, id)
					}
				})
			}
		})
	}
}

// BenchmarkTableCollect is the same retrieval the way the library samples:
// one Collect call, no closure.
func BenchmarkTableCollect(b *testing.B) {
	for _, sh := range tableShapes {
		ts, _ := sh.build(b)
		hs := sh.fingerprints(ts)
		dedup := lsh.NewDedup(sh.n)
		active := make([]int32, 0, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dedup.Begin()
				active = ts.Collect(hs[i%len(hs)], dedup, 0, active[:0], 0)
			}
		})
	}
}

// BenchmarkBatchBuild measures materializing one batch in the two §4.1
// data layouts (the coalesced CSR copy vs per-sample allocations).
func BenchmarkBatchBuild(b *testing.B) {
	opts := benchOpts()
	ws, err := harness.Workloads(opts)
	if err != nil {
		b.Fatal(err)
	}
	train := ws[0].Train
	for _, layout := range []sparse.Layout{sparse.Coalesced, sparse.Fragmented} {
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it := train.Iter(128, layout, uint64(i))
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkDWTAHash measures the §4.3.3 hash computation on a dense
// 128-dim activation (the output-layer query path).
func BenchmarkDWTAHash(b *testing.B) {
	d, err := lsh.NewDWTA(lsh.DWTAConfig{K: 6, L: 50, Dim: 128, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	act := randF32(128, 10)
	out := make([]uint32, 50)
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		b.Run(benchModeName(m), func(b *testing.B) {
			simd.SetMode(m)
			for i := 0; i < b.N; i++ {
				d.HashDense(act, out)
			}
		})
	}
}

// BenchmarkKernelGatherArgMax measures the DWTA winner kernel alone (§4.3.3)
// over a 128-wide activation: the amazon-s shape (128 bins of 8 slots) and
// the paper's Amazon-670K shape (K=6, L=400: 2,400 bins of 8).
func BenchmarkKernelGatherArgMax(b *testing.B) {
	vals := randF32(128, 13)
	for _, nbins := range []int{128, 2400} {
		const slots = 8
		rng := rand.New(rand.NewPCG(uint64(nbins), 14))
		idx := make([]int32, slots*nbins)
		for i := range idx {
			idx[i] = int32(rng.IntN(len(vals)))
		}
		win := make([]uint8, nbins)
		b.Run(fmt.Sprintf("bins%d", nbins), func(b *testing.B) {
			benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
				for i := 0; i < b.N; i++ {
					ks.GatherArgMax(vals, idx, slots, win)
				}
			})
		})
	}
}

// BenchmarkSimHash measures the Text8 hash family in both hyperplane modes:
// Lazy (vocabulary-sized one-hot input, entries hashed on demand) and
// Precomputed (hidden-sized dense activation against the materialized ±1
// matrix, K·L Dot kernels — the network's hot path).
func BenchmarkSimHash(b *testing.B) {
	b.Run("Lazy253855", func(b *testing.B) {
		s, err := lsh.NewSimHash(lsh.SimHashConfig{K: 9, L: 50, Dim: 253855, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		v := sparse.Vector{Indices: []int32{1234}, Values: []float32{1}}
		out := make([]uint32, 50)
		for i := 0; i < b.N; i++ {
			s.Hash(v, out)
		}
	})
	b.Run("Precomputed200", func(b *testing.B) {
		s, err := lsh.NewSimHash(lsh.SimHashConfig{K: 9, L: 50, Dim: 200, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		act := randF32(200, 12)
		out := make([]uint32, 50)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.HashDense(act, out)
		}
	})
}

// BenchmarkPredictorThroughput measures concurrent serving from one
// immutable snapshot: g goroutines issue exact Predict calls against a
// shared Predictor (per-call scratch from its pool). The 1-goroutine run is
// the single-request latency baseline; the GOMAXPROCS run is the saturation
// throughput the snapshot API exists for.
func BenchmarkPredictorThroughput(b *testing.B) {
	w := benchWorkload(b)
	opts := benchOpts()
	cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
	net, err := network.New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	it := w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
	for i := 0; i < 5; i++ {
		batch, ok := it.Next()
		if !ok {
			break
		}
		net.TrainBatch(batch)
	}
	pred := net.Snapshot()
	test := w.Test
	seen := map[int]bool{}
	for _, g := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if seen[g] {
			continue
		}
		seen[g] = true
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for r := 0; r < g; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						pred.Predict(test.Sample(int(i)%test.Len()), 5)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkTopK measures the serving-path ranking step: heap-based top-k
// selection over a full score vector, allocation-free via TopKInto.
func BenchmarkTopK(b *testing.B) {
	scores := randF32(16384, 77)
	for _, k := range []int{1, 10, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			buf := make([]int32, 0, k)
			for i := 0; i < b.N; i++ {
				buf = metrics.TopKInto(scores, k, buf[:0])
			}
			sink = float32(buf[0])
		})
	}
}

// sink defeats dead-code elimination in kernel benchmarks.
var sink float32

// benchServingPredictor builds a forward-dominated serving model (wide
// output layer, so the per-request forward dwarfs queue/HTTP overhead) and
// a deterministic request set. Minimal training: serving benchmarks measure
// the forward path, not model quality.
func benchServingPredictor(b *testing.B) (*slide.Predictor, []slide.BatchEntry) {
	b.Helper()
	const scale, hidden = 5e-3, 128
	train, test, err := slide.AmazonLike(scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	m, err := slide.New(train.Features(), hidden, train.NumLabels(),
		slide.WithDWTA(3, 10), slide.WithWorkers(1), slide.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]slide.Sample, 0, 32)
	for i := 0; i < 32; i++ {
		batch = append(batch, train.Sample(i%train.Len()))
	}
	if _, err := m.TrainBatch(batch); err != nil {
		b.Fatal(err)
	}
	entries := make([]slide.BatchEntry, 256)
	for i := range entries {
		s := test.Sample(i % test.Len())
		entries[i] = slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: 5}
	}
	return m.Snapshot(), entries
}

// BenchmarkBatcherCoalesce is the micro-batching A/B at the pipeline layer
// (no HTTP): 64 concurrent closed-loop clients submitting through the
// Batcher (fused batch forwards) versus calling Predict directly (one
// forward per request — the PR 2 serving model). ns/op is per request;
// mean_batch reports how well the batcher coalesced.
func BenchmarkBatcherCoalesce(b *testing.B) {
	pred, entries := benchServingPredictor(b)
	const clients = 64
	closedLoop := func(b *testing.B, do func(i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					do(int(i))
				}
			}()
		}
		wg.Wait()
	}
	b.Run("Direct", func(b *testing.B) {
		closedLoop(b, func(i int) {
			e := entries[i%len(entries)]
			pred.Predict(e.Indices, e.Values, e.K)
		})
	})
	b.Run("Batched", func(b *testing.B) {
		mgr := serving.NewSnapshotManager(pred)
		bat := serving.NewBatcher(mgr, serving.Config{})
		defer bat.Close()
		ctx := context.Background()
		b.ResetTimer()
		closedLoop(b, func(i int) {
			if _, err := bat.Submit(ctx, entries[i%len(entries)]); err != nil {
				b.Error(err)
			}
		})
		b.StopTimer()
		b.ReportMetric(bat.Stats().MeanBatch, "mean_batch")
	})
}

// BenchmarkServingPipeline is the end-to-end serving A/B: the full HTTP
// stack driven by the deterministic closed-loop load generator at 64
// clients, micro-batched versus direct (-no-batch) over the same snapshot.
// ns/op is per request; qps is reported as a metric.
func BenchmarkServingPipeline(b *testing.B) {
	pred, entries := benchServingPredictor(b)
	for _, batched := range []bool{false, true} {
		name := "Direct"
		if batched {
			name = "Batched"
		}
		b.Run(name, func(b *testing.B) {
			mgr := serving.NewSnapshotManager(pred)
			var bat *serving.Batcher
			if batched {
				bat = serving.NewBatcher(mgr, serving.Config{})
				defer bat.Close()
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				servePredictBench(w, r, mgr, bat)
			}))
			defer ts.Close()
			reqs := make([]slide.BatchEntry, b.N)
			for i := range reqs {
				reqs[i] = entries[i%len(entries)]
			}
			b.ResetTimer()
			report := serving.RunLoad(context.Background(), ts.URL, nil, reqs, 64)
			b.StopTimer()
			if report.Errors > 0 {
				b.Fatalf("%d errors (%s)", report.Errors, report.FirstError)
			}
			b.ReportMetric(report.QPS, "qps")
			if bat != nil {
				b.ReportMetric(bat.Stats().MeanBatch, "mean_batch")
			}
		})
	}
}

// servePredictBench is a minimal /predict handler over the pipeline (the
// cmd/slide-serve wire shape without its flag plumbing), so the benchmark
// measures serving architecture, not command wiring.
func servePredictBench(w http.ResponseWriter, r *http.Request, mgr *serving.SnapshotManager, bat *serving.Batcher) {
	var req struct {
		Indices []int32   `json:"indices"`
		Values  []float32 `json:"values"`
		K       int       `json:"k"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e := slide.BatchEntry{Indices: req.Indices, Values: req.Values, K: req.K}
	var labels []int32
	if bat != nil {
		res, err := bat.Submit(r.Context(), e)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		labels = res.Labels
	} else {
		labels = mgr.Current().Predict(e.Indices, e.Values, e.K)
	}
	json.NewEncoder(w).Encode(map[string]any{"labels": labels})
}

// replicationBenchNet builds the benchmark-workload network with delta
// tracking on and a few warm-up batches applied, plus a fresh batch
// iterator for per-iteration training.
func replicationBenchNet(b *testing.B) (*network.Network, func() sparse.Batch) {
	b.Helper()
	w := benchWorkload(b)
	opts := benchOpts()
	cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
	net, err := network.New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.EnableDeltaTracking()
	it := w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
	next := func() sparse.Batch {
		batch, ok := it.Next()
		if !ok {
			it = w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
			batch, _ = it.Next()
		}
		return batch
	}
	for i := 0; i < 5; i++ {
		net.TrainBatch(next())
	}
	return net, next
}

// BenchmarkReplicationPublish compares what the trainer pays per publish
// interval: a full deep Snapshot (the pre-replication path) vs the
// copy-on-write SnapshotDelta that also yields the sparse delta. One
// training batch runs untimed between iterations so each snapshot covers a
// realistic touched set.
func BenchmarkReplicationPublish(b *testing.B) {
	b.Run("FullSnapshot", func(b *testing.B) {
		net, next := replicationBenchNet(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net.TrainBatch(next())
			b.StartTimer()
			net.Snapshot()
		}
	})
	b.Run("DeltaSnapshot", func(b *testing.B) {
		net, next := replicationBenchNet(b)
		net.SnapshotDelta() // establish the base so every iteration yields a delta
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net.TrainBatch(next())
			b.StartTimer()
			net.SnapshotDelta()
		}
	})
}

// wideReplicationNet builds a wide-output network — SLIDE's
// extreme-classification regime, where LSH-sampled training touches a
// small fraction of output rows per batch and sparse deltas pay off. The
// benchmark workload at bench scale has only ~670 output rows, so a batch
// touches nearly all of them; delta economics only appear when the output
// layer dwarfs batch × active-set.
func wideReplicationNet(b testing.TB) (*network.Network, func() sparse.Batch) {
	b.Helper()
	cfg := network.Config{
		InputDim: 1000, HiddenDim: 64, OutputDim: 30000,
		Hash: network.DWTA, K: 5, L: 16, BucketCap: 64,
		MinActive: 16, MaxActive: 48, LR: 1e-4, Workers: 2,
		RebuildEvery: 100, Seed: 42,
	}
	net, err := network.New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.EnableDeltaTracking()
	rng := rand.New(rand.NewPCG(7, 0x5eed))
	next := func() sparse.Batch {
		var bu sparse.Builder
		for i := 0; i < 32; i++ {
			idx := make([]int32, 20)
			vals := make([]float32, 20)
			seen := map[int32]bool{}
			for j := range idx {
				v := int32(rng.IntN(1000))
				for seen[v] {
					v = int32(rng.IntN(1000))
				}
				seen[v] = true
				idx[j] = v
				vals[j] = 1
			}
			for i := 1; i < len(idx); i++ {
				for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			bu.Add(idx, vals, []int32{int32(rng.IntN(30000))})
		}
		batch, err := bu.CSR()
		if err != nil {
			panic(err)
		}
		return batch
	}
	for i := 0; i < 3; i++ {
		net.TrainBatch(next())
	}
	return net, next
}

// BenchmarkReplicationEncode measures wire encoding and reports the
// bytes a steady-state delta moves relative to a full base snapshot, on
// the wide-output regime.
func BenchmarkReplicationEncode(b *testing.B) {
	net, next := wideReplicationNet(b)
	base, _ := net.SnapshotDelta()
	net.TrainBatch(next())
	_, d := net.SnapshotDelta()
	encBase, err := replicate.EncodeBase(base, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Base", func(b *testing.B) {
		b.ReportMetric(float64(len(encBase)), "bytes")
		for i := 0; i < b.N; i++ {
			if _, err := replicate.EncodeBase(base, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Delta", func(b *testing.B) {
		enc, err := replicate.EncodeDelta(d, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(enc)), "bytes")
		b.ReportMetric(float64(len(enc))/float64(len(encBase)), "of-base")
		for i := 0; i < b.N; i++ {
			if _, err := replicate.EncodeDelta(d, 1, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplicationApply measures the replica side: decoding one delta
// message and applying it copy-on-write onto the current predictor.
func BenchmarkReplicationApply(b *testing.B) {
	net, next := wideReplicationNet(b)
	base, _ := net.SnapshotDelta()
	net.TrainBatch(next())
	_, d := net.SnapshotDelta()
	encBase, err := replicate.EncodeBase(base, 1)
	if err != nil {
		b.Fatal(err)
	}
	encDelta, err := replicate.EncodeDelta(d, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	bm, _, err := replicate.ReadMessage(bytes.NewReader(encBase))
	if err != nil {
		b.Fatal(err)
	}
	remote, err := network.NewPredictorFromBase(bm.Parts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dm, err := replicate.ReadMessage(bytes.NewReader(encDelta))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := remote.ApplyDelta(dm.Parts); err != nil {
			b.Fatal(err)
		}
	}
}
