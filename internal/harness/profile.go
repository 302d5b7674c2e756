package harness

import (
	"fmt"
	"time"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// Profile decomposes the optimized SLIDE step into its component phases —
// LSH query, hidden forward, sampled output forward, full training step —
// by timing each in isolation over one batch stream. This is the §5.7-style
// attribution: the difference between the summed components and the full
// step is the backward+ADAM+coordination share.
func Profile(opts Options) (*Report, error) {
	opts.defaults()
	ws, err := Workloads(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Phase profile — optimized SLIDE components (scale %g)", opts.Scale),
		Header: []string{"Dataset", "Phase", "Time/epoch(s)", "Share of full step"},
		Note:   "phases timed in isolation over identical batches; backward+ADAM is the remainder",
	}
	for _, w := range ws {
		cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
		if platform.RaceEnabled {
			cfg.Locked = true // defined behaviour under -race; see platform.RaceEnabled
		}
		net, err := network.New(&cfg)
		if err != nil {
			return nil, err
		}
		train := trainSlice(w.Train)

		// Warm the model so active sets reflect trained tables.
		it := train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
		for i := 0; i < 5; i++ {
			b, ok := it.Next()
			if !ok {
				break
			}
			net.TrainBatch(b)
		}

		collect := func(f func(b sparse.Batch)) time.Duration {
			start := time.Now()
			it := train.Iter(w.Batch, sparse.Coalesced, opts.Seed+7)
			for {
				b, ok := it.Next()
				if !ok {
					break
				}
				f(b)
			}
			return time.Since(start)
		}

		hidden := net.Hidden()
		tables := net.Tables()
		h := make([]float32, cfg.HiddenDim)
		hs := make([]uint32, tables.Tables())
		dedup := lsh.NewDedup(cfg.OutputDim)
		active := make([]int32, 0, cfg.OutputDim)
		ks := simd.Active()

		tHidden := collect(func(b sparse.Batch) {
			for i := 0; i < b.Len(); i++ {
				hidden.Forward(ks, b.Sample(i), h)
			}
		})
		tQuery := collect(func(b sparse.Batch) {
			for i := 0; i < b.Len(); i++ {
				hidden.Forward(ks, b.Sample(i), h)
				tables.HashDense(h, hs)
				active = tables.Collect(hs, dedup, 0, active[:0], 0)
			}
		}) - tHidden
		if tQuery < 0 {
			tQuery = 0
		}
		tFull := collect(func(b sparse.Batch) { net.TrainBatch(b) })

		rest := tFull - tHidden - tQuery
		if rest < 0 {
			rest = 0
		}
		share := func(d time.Duration) string {
			if tFull <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(tFull))
		}
		t.Append(w.Name, "hidden forward (Alg 2)", fmt.Sprintf("%.3f", tHidden.Seconds()), share(tHidden))
		t.Append(w.Name, "LSH query (hash+retrieve)", fmt.Sprintf("%.3f", tQuery.Seconds()), share(tQuery))
		t.Append(w.Name, "sampled fwd+bwd+ADAM", fmt.Sprintf("%.3f", rest.Seconds()), share(rest))
		t.Append(w.Name, "full training step", fmt.Sprintf("%.3f", tFull.Seconds()), "100%")
	}
	return &Report{Name: "profile", Tables: []*Table{t}}, nil
}
