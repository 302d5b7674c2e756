package main

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"github.com/slide-cpu/slide/internal/costmodel"
	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/slide"
)

// traceTrain is the traced run of a training workload: an untraced and a
// traced stretch of the end-to-end loop (their difference is the tracing
// overhead), then probes of every layer a step goes through, on a network
// of the same shape trained on the same data.
func traceTrain(c *runConfig, res *result, plan trainPlan, in *trainInstance) (*result, error) {
	tr := newTracer()
	stretch := func(warm int, t *tracer) (*trainWindow, error) {
		return trainRun{in: in, warm: warm, seconds: c.seconds / 4, minSteps: plan.blockSteps, tr: t}.run()
	}
	plain, err := stretch(plan.warm, nil)
	if err != nil {
		return nil, err
	}
	traced, err := stretch(0, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(plan.warm + len(plain.ops) + len(traced.ops))
	res.Failed = plain.failed + traced.failed
	res.check("finite_loss", res.Failed == 0, "%d of %d steps non-finite", res.Failed, res.Attempted)
	a, b := meanThroughput(plain.ops, plan.blockSteps), meanThroughput(traced.ops, plan.blockSteps)
	res.set("bench.trace_overhead_pct", 100*(a-b)/a)
	// What Run spends outside TrainBatch: batch assembly, schedules, hooks'
	// dispatch (the hooks' own time is taken out).
	res.set("train.overhead_pct", 100*(1-traced.trainTime.Seconds()/(traced.wall-traced.hooks).Seconds()))

	if err := trainProbes(c, res, plan, in.f); err != nil {
		return nil, err
	}
	stall, err := checkpointStall(c, in)
	if err != nil {
		return nil, err
	}
	res.set("train.checkpoint_stall_ms", stall*1e3)
	if err := tr.write(c.outDir, c.workload); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// checkpointStall is how much longer a step takes when slide.Trainer writes
// a checkpoint after it: the median checkpointing step minus the median
// plain step, in seconds.
func checkpointStall(c *runConfig, in *trainInstance) (float64, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(c.outDir, "probe_"+c.workload+".ckpt")
	defer os.Remove(path)
	src, err := slide.NewDatasetSource(in.f.train, in.f.batch)
	if err != nil {
		return 0, err
	}
	const every, steps = 4, 12
	var plain, saving []float64
	wrote := false
	prev := time.Now()
	t, err := slide.NewTrainer(in.m, src, slide.WithEpochs(0), slide.WithMaxSteps(in.m.Steps()+steps),
		slide.WithCheckpoints(path, every),
		slide.WithOnCheckpoint(func(slide.CheckpointEvent) { wrote = true }),
		slide.WithOnBatch(func(slide.BatchEvent) {
			// The checkpoint of step s is written after s's OnBatch, so it
			// lands in the hook-to-hook time of step s+1.
			d := time.Since(prev).Seconds()
			if wrote {
				saving = append(saving, d)
			} else {
				plain = append(plain, d)
			}
			wrote = false
			prev = time.Now()
		}))
	if err != nil {
		return 0, err
	}
	if _, err := t.Run(context.Background()); err != nil {
		return 0, err
	}
	return max(median(saving)-median(plain), 0), nil
}

// captured is one training batch as the engine's per-sample loop sees it:
// inputs, labels, real hidden activations, and real active sets (labels,
// then LSH candidates, then random top-up to the minimum).
type captured struct {
	xs     []sparse.Vector
	labels [][]int32
	hs     [][]float32
	hashes [][]uint32
	active [][]int32
}

// trainProbes fills the simd, lsh, layer, network, dataset and costmodel
// metrics of a training workload.
func trainProbes(c *runConfig, res *result, plan trainPlan, f *fixture) error {
	pr := newProber(res)
	train, _, err := f.internal()
	if err != nil {
		return err
	}
	warm, measured := plan.warm, 5*plan.blockSteps
	if f.linear {
		measured = plan.blockSteps // text8 steps are several times longer
	}

	// The workload's own engine.
	engine, err := newProbeNet(f, train, c.seed, c.procs, plan.shards, layer.FP32)
	if err != nil {
		return err
	}
	if err := engine.steps(warm, false); err != nil {
		return err
	}
	if err := engine.steps(measured, true); err != nil {
		return err
	}
	pr.samples("network.train_step_ms", nsPerMS, engine.stepSecs)
	res.set("network.train_step_p95_ms", quantile(sortedCopy(engine.stepSecs), 0.95)*1e3)
	// Shares and ratios are of the mean step: a rebuild lands on one step
	// in rebuildEvery, which a median never sees.
	step := mean(engine.stepSecs)
	build := pr.samples("dataset.batch_build_us", nsPerUS, engine.buildSecs)
	meanActive := float64(engine.activeSum) / float64(max(engine.samples, 1))
	res.set("network.active_per_sample", meanActive)

	// Layer probes need per-network tables, so they run on the HOGWILD
	// network: the engine itself, or its unsharded twin.
	flat := engine
	if plan.shards > 0 {
		res.set("network.sharded_step_ms", step*1e3)
		if flat, err = trainedTwin(f, train, c.seed, c.procs, 0, layer.FP32, warm, measured); err != nil {
			return err
		}
		res.set("network.sharded_vs_hogwild_ratio", step/mean(flat.stepSecs))
		// The same question with one worker, where the phase engine's
		// barriers cost nothing and only its extra passes show.
		short := max(measured/2/plan.blockSteps, 1) * plan.blockSteps
		h1, err := trainedTwin(f, train, c.seed, 1, 0, layer.FP32, warm, short)
		if err != nil {
			return err
		}
		s1, err := trainedTwin(f, train, c.seed, 1, plan.shards, layer.FP32, warm, short)
		if err != nil {
			return err
		}
		res.set("network.sharded_vs_hogwild_ratio_w1", mean(s1.stepSecs)/mean(h1.stepSecs))
	} else {
		bf, err := trainedTwin(f, train, c.seed, c.procs, 0, layer.BF16Both, warm, max(measured/2, 1))
		if err != nil {
			return err
		}
		pr.samples("network.train_step_bf16_ms", nsPerMS, bf.stepSecs)
	}

	per := layerProbes(pr, flat, c.seed)
	simdProbes(pr, flat, per.cap)
	if err := persistProbes(pr, flat.net, c.procs); err != nil {
		return err
	}

	// Attribution: what the probes account for in one step of this engine.
	// W workers share the per-sample work; the optimizer, the rebuild (once
	// per period) and batch assembly are per step.
	n := float64(f.batch) / float64(c.procs)
	lshStep := n*(per.hash+per.query) + per.rebuild/rebuildEvery
	layerStep := n*(per.hiddenFwd+per.fwdActive+per.accumulate+per.hiddenBwd) + per.applyAdam
	res.set("lsh.share_pct", 100*lshStep/step)
	res.set("layer.share_pct", 100*layerStep/step)
	res.set("network.train_step_unattributed_pct", 100*(1-(lshStep+layerStep+build)/step))

	// The roofline's prediction for this shape on this host. SingleStep
	// models one worker; the measured step ran on c.procs.
	st := f.train.Stats()
	w := costmodel.Workload{
		Samples: f.batch, FeatureNNZ: st.AvgFeatureNNZ, Input: st.Features, Hidden: f.hidden,
		Output: st.Labels, MeanActive: meanActive, BatchSize: f.batch, L: f.l, K: f.k,
		RebuildPeriod: rebuildEvery,
	}
	host := platform.Host()
	sys := costmodel.OptimizedSLIDE(host)
	sys.WeightBytes, sys.ActBytes = 4, 4 // the workloads train in float32
	pred := costmodel.SingleStep(w, sys, host)
	if plan.shards > 0 {
		pred = costmodel.ShardedStep(w, sys, host, c.procs)
	}
	res.set("costmodel.train_step_pred_ms", pred.Seconds()*1e3)
	res.set("costmodel.train_step_measured_over_pred", step/pred.Seconds())
	return nil
}

// trainedTwin builds a network of the fixture's shape with the given
// engine settings, warms it and records measured steps.
func trainedTwin(f *fixture, train *dataset.Dataset, seed uint64, workers, shards int, prec layer.Precision, warm, measured int) (*probeNet, error) {
	pn, err := newProbeNet(f, train, seed, workers, shards, prec)
	if err != nil {
		return nil, err
	}
	if err := pn.steps(warm, false); err != nil {
		return nil, err
	}
	return pn, pn.steps(measured, true)
}

// perSample is the median cost, in seconds, of each probed stage: the
// per-sample stages once per sample, applyAdam and rebuild once per call.
type perSample struct {
	hiddenFwd, hiddenBwd, hash, query, fwdActive, accumulate float64
	applyAdam, rebuild                                       float64
	cap                                                      *captured
}

// layerProbes replays the network's last training batch through the public
// layer and lsh functions in the order a training step calls them.
func layerProbes(pr *prober, pn *probeNet, seed uint64) perSample {
	net, ks := pn.net, pr.ks
	hid, out, ts, cfg := net.Hidden(), net.Output(), net.Tables(), net.Config()
	b := pn.last
	n := b.Len()
	cp := &captured{
		xs: make([]sparse.Vector, n), labels: make([][]int32, n),
		hs: make([][]float32, n), hashes: make([][]uint32, n), active: make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		cp.xs[i], cp.labels[i] = b.Sample(i), b.Labels(i)
		cp.hs[i] = make([]float32, cfg.HiddenDim)
		cp.hashes[i] = make([]uint32, ts.Tables())
	}
	var ps perSample
	ps.cap = cp
	// Groups of 8 calls per clock read: a one-hot hidden forward runs for
	// tens of nanoseconds.
	const group = 8
	reps := max(n/group, 1)
	at := func(i int) int { return i % n }

	ps.hiddenFwd = pr.time("layer.hidden_forward_us", nsPerUS, reps, group, func(i int) {
		hid.Forward(ks, cp.xs[at(i)], cp.hs[at(i)])
	})
	ps.hash = pr.time("lsh.hash_dense_us", nsPerUS, reps, group, func(i int) {
		ts.HashDense(cp.hs[at(i)], cp.hashes[at(i)])
	})

	// Retrieval quality, untimed: what the tables return on their own,
	// before the true labels are forced into the active set.
	dedup := lsh.NewDedup(cfg.OutputDim)
	var candidates, labelsFound, labelsTotal int
	for i := 0; i < n; i++ {
		dedup.Begin()
		got := 0
		ts.QueryHashes(cp.hashes[i], func(id int32) {
			if !dedup.Seen(id) {
				got++
			}
		})
		candidates += got
		for _, y := range cp.labels[i] {
			labelsTotal++
			if dedup.Seen(y) { // already stamped = the tables returned it
				labelsFound++
			}
		}
	}
	pr.res.set("lsh.candidates_per_query", float64(candidates)/float64(n))
	pr.res.set("lsh.label_recall", float64(labelsFound)/float64(max(labelsTotal, 1)))
	pr.res.set("lsh.bucket_mean_occupancy", ts.Stats().MeanPerBucket)

	ps.query = pr.time("lsh.query_us", nsPerUS, reps, group, func(i int) {
		k := at(i)
		act := cp.active[k][:0]
		dedup.Begin()
		for _, y := range cp.labels[k] {
			if !dedup.Seen(y) {
				act = append(act, y)
			}
		}
		ts.QueryHashes(cp.hashes[k], func(id int32) {
			if !dedup.Seen(id) {
				act = append(act, id)
			}
		})
		cp.active[k] = act
	})
	// Random top-up to the minimum, as the engine does when buckets run cold.
	rng := rand.New(rand.NewPCG(seed, 0xac71))
	for k := range cp.active {
		dedup.Begin()
		for _, id := range cp.active[k] {
			dedup.Seen(id)
		}
		for len(cp.active[k]) < cfg.MinActive {
			if id := int32(rng.IntN(cfg.OutputDim)); !dedup.Seen(id) {
				cp.active[k] = append(cp.active[k], id)
			}
		}
	}

	logits := make([]float32, cfg.OutputDim)
	ps.fwdActive = pr.time("layer.forward_active_us", nsPerUS, reps, group, func(i int) {
		k := at(i)
		out.ForwardActive(ks, cp.active[k], cp.hs[k], nil, logits[:len(cp.active[k])])
	})

	// Backward: gradient rows and the hidden gradient, then the optimizer
	// over what one whole batch touched. Fresh gradients every round keep
	// the optimizer out of denormals.
	dh := make([]float32, cfg.HiddenDim)
	accumulate := func(k int) {
		simd.Zero(dh)
		for j, id := range cp.active[k] {
			gz := float32(0.01)
			if j%2 == 1 {
				gz = -gz
			}
			out.Accumulate(ks, id, gz, cp.hs[k], nil, dh)
		}
	}
	backward := func(k int) { hid.Backward(ks, cp.xs[k], cp.hs[k], dh) }
	var adam []float64
	for round := 0; round < 5; round++ {
		if round == 0 {
			ps.accumulate = pr.time("layer.accumulate_us", nsPerUS, reps, group, func(i int) { accumulate(at(i)) })
			ps.hiddenBwd = pr.time("layer.hidden_backward_us", nsPerUS, reps, group, func(i int) { backward(at(i)) })
			pr.res.set("layer.touched_row_fraction", float64(out.TouchedRows())/float64(cfg.OutputDim))
		} else {
			for k := 0; k < n; k++ {
				accumulate(k)
				backward(k)
			}
		}
		p := simd.NewAdamParams(cfg.LR, cfg.Beta1, cfg.Beta2, cfg.Eps, net.Step()+int64(round)+1)
		t0 := time.Now()
		hid.ApplyAdam(ks, p, cfg.Workers)
		out.ApplyAdam(ks, p, cfg.Workers)
		adam = append(adam, time.Since(t0).Seconds())
	}
	ps.applyAdam = pr.samples("layer.apply_adam_ms", nsPerMS, adam)

	ps.rebuild = pr.time("lsh.rebuild_ms", nsPerMS, 2, 1, func(int) {
		ts.RebuildDense(cfg.OutputDim, cfg.HiddenDim, out.RowF32, cfg.Workers)
	})
	return ps
}

// simdProbes times the kernels a step spends its time in, on the shapes
// and data of this network: hidden-width rows, real activations, real
// active sets. Bytes and flops per call are computed from the shapes.
func simdProbes(pr *prober, pn *probeNet, cp *captured) {
	net, ks := pn.net, pr.ks
	out, cfg := net.Output(), net.Config()
	h := float64(cfg.HiddenDim)
	n := len(cp.hs)
	rows := make([][]float32, cfg.OutputDim)
	for i := range rows {
		rows[i] = out.RowF32(i, nil)
	}
	const reps, inner = 64, 64
	var sink float32

	pr.time("simd.dot_ns", 1, reps, inner, func(i int) { sink += ks.Dot(rows[i%len(rows)], cp.hs[i%n]) })
	pr.cost("simd.dot_ns", 8*h, 2*h)

	// One call scores a whole active set; the metric is per row, so the
	// unit is the mean active-set size in nanoseconds.
	scores := make([]float32, cfg.OutputDim)
	meanRows := 0.0
	for _, act := range cp.active {
		meanRows += float64(len(act)) / float64(n)
	}
	pr.time("simd.dot_many_bias_ns_per_row", meanRows, max(n/8, 1), 8, func(i int) {
		ks.DotManyBias(rows, out.Bias(), cp.active[i%n], cp.hs[i%n], scores[:len(cp.active[i%n])])
	})
	pr.cost("simd.dot_many_bias_ns_per_row", 4*h+8, 2*h+1)

	grad := make([]float32, cfg.HiddenDim)
	dh := make([]float32, cfg.HiddenDim)
	pr.time("simd.axpy_two_ns", 1, reps, inner, func(i int) {
		ks.AxpyTwo(0.01, cp.hs[i%n], grad, rows[i%len(rows)], dh)
	})
	pr.cost("simd.axpy_two_ns", 24*h, 4*h)

	// ADAM over one row at a time, as the optimizer calls it, on copies so
	// the network is left alone; the gradient is refreshed every call.
	w, m, v, g := make([]float32, cfg.HiddenDim), make([]float32, cfg.HiddenDim), make([]float32, cfg.HiddenDim), make([]float32, cfg.HiddenDim)
	copy(w, rows[0])
	p := simd.NewAdamParams(cfg.LR, cfg.Beta1, cfg.Beta2, cfg.Eps, net.Step()+1)
	// Reported per element: the unit is the row width in nanoseconds.
	pr.time("simd.adam_step_ns_per_elem", h, reps, inner, func(i int) {
		copy(g, cp.hs[i%n])
		ks.AdamStep(w, m, v, g, p)
	})
	pr.cost("simd.adam_step_ns_per_elem", 28*h, 12*h)

	full := make([]float32, cfg.OutputDim)
	out.ForwardAll(ks, cp.hs[0], nil, full, 1)
	idx := 0
	pr.time("simd.argmax_ns", 1, reps, 4, func(int) { idx += ks.ArgMax(full) })
	pr.cost("simd.argmax_ns", 4*float64(cfg.OutputDim), float64(cfg.OutputDim))
	_, _ = sink, idx
}

// persistProbes times what freezes or stores a network: a full snapshot,
// the layer copies under it, and a checkpoint round trip through memory.
func persistProbes(pr *prober, net *network.Network, workers int) error {
	pr.time("network.snapshot_ms", nsPerMS, 5, 1, func(int) { net.Snapshot() })
	pr.time("layer.snapshot_weights_ms", nsPerMS, 5, 1, func(int) {
		net.Hidden().SnapshotWeights()
		net.Output().SnapshotWeights()
	})
	var buf bytes.Buffer
	var err error
	pr.time("network.save_ms", nsPerMS, 3, 1, func(int) {
		buf.Reset()
		if e := net.Save(&buf); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	pr.time("network.load_ms", nsPerMS, 2, 1, func(int) {
		if _, e := network.Load(bytes.NewReader(buf.Bytes()), workers); e != nil {
			err = e
		}
	})
	return err
}
