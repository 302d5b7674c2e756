package main

import (
	"errors"
	"io"
	"time"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// prober times calls into the public functions of one layer, from outside,
// on inputs captured from the workload, and records each as a per-layer
// metric with its call count and total time.
type prober struct {
	res *result
	ks  *simd.Kernels
}

func newProber(res *result) *prober { return &prober{res: res, ks: simd.Active()} }

// time records metric name as the median time of one call to fn, in units
// of unitNS nanoseconds. It makes reps measurements of inner back-to-back
// calls each (inner > 1 keeps the clock out of kernels that run for tens of
// nanoseconds); fn gets the running call index so it can walk captured
// inputs. It returns the median in seconds, for share arithmetic.
func (p *prober) time(name string, unitNS float64, reps, inner int, fn func(i int)) float64 {
	per := make([]float64, reps)
	var total time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			fn(r*inner + j)
		}
		d := time.Since(t0)
		total += d
		per[r] = float64(d.Nanoseconds()) / float64(inner)
	}
	d := summarize(per)
	p.res.set(name, d.P50/unitNS)
	p.res.Detail[name] = metricDetail{N: d.N, P25: d.P25 / unitNS, P75: d.P75 / unitNS,
		Calls: int64(reps * inner), TotalMS: float64(total.Nanoseconds()) / 1e6}
	return d.P50 / 1e9
}

// samples records metric name as the median of durations measured
// elsewhere (seconds), in units of unitNS nanoseconds, and returns that
// median in seconds.
func (p *prober) samples(name string, unitNS float64, secs []float64) float64 {
	if len(secs) == 0 {
		return 0
	}
	d := summarize(secs)
	total := 0.0
	for _, s := range secs {
		total += s
	}
	p.res.set(name, d.P50*1e9/unitNS)
	p.res.Detail[name] = metricDetail{N: d.N, P25: d.P25 * 1e9 / unitNS, P75: d.P75 * 1e9 / unitNS,
		Calls: int64(len(secs)), TotalMS: total * 1e3}
	return d.P50
}

// cost attaches the computed (not measured) bytes moved and floating-point
// or integer operations of one call.
func (p *prober) cost(name string, bytes, flops float64) {
	d := p.res.Detail[name]
	d.Bytes, d.Flops = bytes, flops
	p.res.Detail[name] = d
}

const (
	nsPerUS = 1e3
	nsPerMS = 1e6
)

// probeNet is a network.Network of the fixture's shape, trained on the
// fixture's data through the internal entry points, for probes that need
// the layers, tables and batches a slide.Model does not expose.
type probeNet struct {
	f     *fixture
	net   *network.Network
	src   *dataset.MemorySource
	epoch uint64
	seed  uint64

	stepSecs, buildSecs []float64
	activeSum, samples  int64
	last                sparse.Batch
}

func newProbeNet(f *fixture, train *dataset.Dataset, seed uint64, workers, shards int, prec layer.Precision) (*probeNet, error) {
	cfg := f.netConfig(seed, workers, shards)
	cfg.Precision = prec
	net, err := network.New(&cfg)
	if err != nil {
		return nil, err
	}
	src, err := dataset.NewMemorySource(train, f.batch, sparse.Coalesced)
	if err != nil {
		return nil, err
	}
	if err := src.Reset(seed); err != nil {
		return nil, err
	}
	return &probeNet{f: f, net: net, src: src, seed: seed}, nil
}

// steps trains n batches; with record set it keeps each batch-assembly and
// TrainBatch duration and the active-set sizes.
func (pn *probeNet) steps(n int, record bool) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		b, err := pn.src.Next()
		if errors.Is(err, io.EOF) {
			pn.epoch++
			if err = pn.src.Reset(pn.seed + pn.epoch); err == nil {
				b, err = pn.src.Next()
			}
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		st := pn.net.TrainBatch(b)
		t2 := time.Now()
		pn.last = b
		if record {
			pn.buildSecs = append(pn.buildSecs, t1.Sub(t0).Seconds())
			pn.stepSecs = append(pn.stepSecs, t2.Sub(t1).Seconds())
			pn.activeSum += st.ActiveSum
			pn.samples += int64(st.Samples)
		}
	}
	return nil
}
