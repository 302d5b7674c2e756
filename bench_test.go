// Package repro_test holds the kernel A/B microbenchmarks: each puts two
// shapes of one hot loop side by side per kernel tier (a single-call walk
// against the per-row loop it replaced, a tile against per-row calls), or
// times a kernel no probe of `benchmark/` reaches. They decide between kernel
// shapes while one is being written; every number a claim rests on comes from
// `benchmark/` (DESIGN.md "Benchmark workflow").
//
//	go test -run '^$' -bench . -cpu 1 .
package repro_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/harness"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

func randF32(n int, seed uint64) []float32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// benchKernelModes is the per-mode microbenchmark sweep: every tier this
// host supports, fastest first (assembly tiers appear only where CPUID
// reports them).
func benchKernelModes(b *testing.B, run func(b *testing.B, ks *simd.Kernels)) {
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		b.Run(m.String(), func(b *testing.B) { run(b, ks) })
	}
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
// 1,024-row blocks and the given batch sizes. ns per (row, sample) is
// reported next to ns/op (one op is one pass over the matrix).
func benchTiles(b *testing.B, s walkShape, batches []int, tile, perrow func(ks *simd.Kernels, ids []int32, batch int)) {
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
				for _, batch := range batches {
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
		benchTiles(b, s, []int{1, 4, 32},
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
// per-row DotU8S8 loop it is defined as (and replaced in quant.RowQ), on the
// ids and accumulators the exact walk passes: contiguous ids, and one
// accumulator list per sample cut from one buffer an odd number of cache
// lines apart, as quant.WalkScratch cuts them. The batches bracket the VNNI
// tier's switch from the 2 × 4 tile to activation panels.
func BenchmarkKernelDotManyU8S8(b *testing.B) {
	const maxBatch, maxBlock = 32, 1024
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
		const stride = maxBlock + 16
		buf := make([]int32, maxBatch*stride)
		qas, accs := make([][]uint8, maxBatch), make([][]int32, maxBatch)
		for i := range qas {
			qas[i], accs[i] = make([]uint8, s.dim), buf[i*stride:][:maxBlock:maxBlock]
			for j := range qas[i] {
				qas[i][j] = uint8(rng.IntN(128))
			}
		}
		benchTiles(b, s, []int{1, 4, 8, 12, 13, 16, 32},
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

// BenchmarkExactRank32 times the exact top-5 ranking of one 32-query batch
// at the two output shapes, on every tier: "walk" is the full f32 walk plus
// TopKInto per query — the live network's Evaluate, which never screens —
// and "screen" the int8 walk plus the f32 refine of the rows that can reach
// the top 5 — a snapshot's Evaluate on the same weights. Both include the
// hidden forward; rows/query is what the screen scored in f32. Weights are
// the untrained initialization, so the screen's cut is looser than on a
// trained model.
func BenchmarkExactRank32(b *testing.B) {
	const queries, k = 32, 5
	prev := simd.CurrentMode()
	defer simd.SetMode(prev)
	for i, s := range outputWalks {
		in := hiddenWalks[i]
		net, err := network.New(&network.Config{InputDim: in.rows, HiddenDim: s.dim, OutputDim: s.rows,
			NoSampling: true, LR: 1e-3, Workers: 1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		snap := net.Snapshot()
		rng := rand.New(rand.NewPCG(91, 1))
		var bb sparse.Builder
		for range queries {
			ids := make([]int32, 0, in.ids)
			for _, j := range rng.Perm(in.rows)[:in.ids] {
				ids = append(ids, int32(j))
			}
			slices.Sort(ids)
			bb.Add(ids, randF32(in.ids, rng.Uint64()), []int32{int32(rng.IntN(s.rows))})
		}
		batch, err := bb.CSR()
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range simd.AvailableModes() {
			for _, v := range []struct {
				name string
				eval func(sparse.Batch, int, int) float64
			}{{"walk", net.Evaluate}, {"screen", snap.Evaluate}} {
				b.Run(fmt.Sprintf("%s/%s/%s", m, s.name, v.name), func(b *testing.B) {
					simd.SetMode(m)
					q0, r0 := snap.ScreenStats()
					for b.Loop() {
						v.eval(batch, queries, k)
					}
					if q, r := snap.ScreenStats(); q > q0 {
						b.ReportMetric(float64(r-r0)/float64(q-q0), "rows/query")
					}
				})
			}
		}
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

// BenchmarkTrainStepModes measures one TrainBatch of the Amazon-670K-like
// workload under each forced kernel tier — the end-to-end
// assembly-vs-portable ratio (avx512 or avx2 row against vector), which the
// gated workloads, run at the host's best tier only, do not give. Each
// sub-benchmark builds a fresh network so no tier inherits another's
// warmed-up weights or table state.
func BenchmarkTrainStepModes(b *testing.B) {
	opts := harness.Options{Scale: 1e-6, Workers: 2, Seed: 42}
	ws, err := harness.Workloads(opts)
	if err != nil {
		b.Fatal(err)
	}
	w := ws[0]
	prev := simd.CurrentMode()
	defer simd.SetMode(prev)
	for _, m := range simd.AvailableModes() {
		b.Run(m.String(), func(b *testing.B) {
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

// BenchmarkKernelWidenBF16 measures the §4.4 row loader: one 128-wide
// bfloat16 row widened into float32, under every kernel tier.
func BenchmarkKernelWidenBF16(b *testing.B) {
	src := make([]bf16.BF16, 128)
	for i, x := range randF32(128, 7) {
		src[i] = bf16.FromFloat32(x)
	}
	dst := make([]float32, 128)
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.WidenBF16(dst, src)
		}
	})
}

// BenchmarkKernelExpSum measures the label head's exponentials for one
// text8-s sample: 598 logits, with m their max, under every kernel tier (the
// Go tiers are the per-element math.Exp loop the assembly replaces).
func BenchmarkKernelExpSum(b *testing.B) {
	x := randF32(598, 11)
	for i := range x {
		x[i] *= 3
	}
	m := simd.Max(x)
	out := make([]float32, len(x))
	benchKernelModes(b, func(b *testing.B, ks *simd.Kernels) {
		for i := 0; i < b.N; i++ {
			ks.ExpSum(x, m, out, 0)
		}
	})
}

// tableShape is one table-set configuration BenchmarkTableCollect runs at: a
// small one, where everything sits in L1/L2 whatever the layout, and the two
// the gated training workloads use.
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

// BenchmarkTableCollect measures one active-set retrieval the way the library
// samples: one Collect call, no closure (the lsh.query_us probe times the
// closure form, QueryHashes).
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

// sink defeats dead-code elimination in kernel benchmarks.
var sink float32
