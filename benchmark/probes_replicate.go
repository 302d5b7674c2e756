package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/quant"
	"github.com/slide-cpu/slide/internal/replicate"
)

// traceReplicate is the traced run of replicate_follow: the two stretches
// (untraced, traced) have already run; this adds the chain's own timings
// from the spans and logs, then probes of the snapshot, wire, apply and
// int8 layers on a single-worker network of the same shape.
func traceReplicate(c *runConfig, res *result, in *replInstance, tr *tracer, plain, traced *replWindow, pub *publisher, swaps []swap, bytesPerStep float64) (*result, error) {
	a, b := meanThroughput(plain.reader.ops, 1), meanThroughput(traced.reader.ops, 1)
	res.set("bench.trace_overhead_pct", 100*(a-b)/a)
	res.set("replicate.reader_queries_per_s", a)
	lat := latenciesMS(plain.reader.ops)
	reqP50 := quantile(lat, 0.5) / 1e3
	res.set("serving.latency_p95_ms", quantile(lat, 0.95))
	res.set("serving.latency_p99_ms", quantile(lat, 0.99))
	res.set("train.overhead_pct", 100*(1-traced.train.trainTime.Seconds()/(traced.train.wall-traced.train.hooks).Seconds()))

	p2s := publishToServedMS(pub.log, swaps)
	res.setDist("replicate.publish_to_served_ms", summarize(p2s))
	res.set("replicate.delta_bytes_per_step", bytesPerStep)
	res.set("replicate.resyncs", float64(in.client.Stats.Resyncs.Load()))
	var lag int64
	for _, s := range swaps {
		lag = max(lag, lagAt(pub.log, s))
	}
	res.set("replicate.version_lag_max", float64(lag))
	// One span per version from the publish call to the hand-over: what the
	// client's fetch, ReadMessage and ApplyDelta took together, as seen from
	// outside the client.
	swapAt := map[uint64]time.Time{}
	for _, s := range swaps {
		swapAt[s.version] = s.at
	}
	for _, p := range pub.log {
		if at, ok := swapAt[p.version]; ok && !p.at.Before(tr.t0) {
			tr.add("replicate.Client.follow(fetch+ReadMessage+ApplyDelta)", -1, int64(p.version), p.at, at)
		}
	}
	// The trainer-side calls, as the traced stretch's spans timed them.
	pr := newProber(res)
	pr.samples("network.snapshot_delta_ms", nsPerMS, tr.durations("slide.Model.SnapshotDelta"))
	hubPublish := pr.samples("replicate.hub_publish_ms", nsPerMS, tr.durations("replicate.Hub.Publish"))
	pr.samples("serving.publish_swap_us", nsPerUS, tr.durations("serving.Server.Publish"))

	if err := serverCounters(res, in.repHTTP.url); err != nil {
		return nil, err
	}

	if err := replicateProbes(c, res, pr, in, reqP50, hubPublish, median(traced.train.stepSecs())); err != nil {
		return nil, err
	}
	if err := tr.write(c.outDir, c.workload); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// lagAt is how many versions the trainer had published, beyond s's, by the
// time the replica swapped s in.
func lagAt(log []published, s swap) int64 {
	var newest uint64
	for _, p := range log {
		if !p.at.After(s.at) {
			newest = p.version
		}
	}
	if newest <= s.version {
		return 0
	}
	return int64(newest - s.version)
}

// replicateProbes fills the quant, replicate, network and layer metrics
// only this workload exercises. reqP50 and stepP50 are the reader's median
// request latency and the trainer's median step, in seconds.
func replicateProbes(c *runConfig, res *result, pr *prober, in *replInstance, reqP50, hubPublish, stepP50 float64) error {
	ks := pr.ks
	train, _, err := in.f.internal()
	if err != nil {
		return err
	}
	twin, err := trainedTwin(in.f, train, c.seed, 1, 0, layer.FP32, c.pretrainSteps(replPretrain), 0)
	if err != nil {
		return err
	}
	net := twin.net
	cfg := net.Config()
	if err := persistProbes(pr, net, 1); err != nil {
		return err
	}

	// Copy-on-write snapshot of one publish interval, at the layer level.
	net.Hidden().EnableJournal()
	net.Output().EnableJournal()
	prevH, prevO := net.Hidden().SnapshotWeights(), net.Output().SnapshotWeights()
	if err := twin.steps(publishEvery, false); err != nil {
		return err
	}
	cols, rows := net.Hidden().DrainJournal(), net.Output().DrainJournal()
	pr.time("layer.snapshot_cow_ms", nsPerMS, 5, 1, func(int) {
		net.Hidden().SnapshotWeightsCOW(prevH, cols)
		net.Output().SnapshotWeightsCOW(prevO, rows)
	})

	// The wire: base and one interval's delta, int8 as the hub sends them.
	net.EnableDeltaTracking()
	base, _ := net.SnapshotDelta()
	if err := twin.steps(publishEvery, false); err != nil {
		return err
	}
	next, delta := net.SnapshotDelta()
	var encBase, encDelta []byte
	var encErr error
	pr.time("replicate.encode_base_ms", nsPerMS, 3, 1, func(int) {
		if encBase, err = replicate.EncodeBaseQ(base, 1, replicaQuantBits); err != nil {
			encErr = err
		}
	})
	pr.time("replicate.encode_delta_ms", nsPerMS, 5, 1, func(int) {
		if encDelta, err = replicate.EncodeDeltaQ(delta, 1, 2, replicaQuantBits); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	res.set("replicate.base_bytes", float64(len(encBase)))
	res.set("replicate.delta_bytes", float64(len(encDelta)))
	res.set("replicate.delta_to_base_ratio", float64(len(encDelta))/float64(len(encBase)))

	var msg *replicate.Delta
	readMessage := pr.time("replicate.read_message_ms", nsPerMS, 5, 1, func(int) {
		_, d, e := replicate.ReadMessage(bytes.NewReader(encDelta))
		if e != nil || d == nil {
			encErr = fmt.Errorf("ReadMessage of an encoded delta: %v", e)
			return
		}
		msg = d
	})
	if encErr != nil {
		return encErr
	}
	wireBase, _, err := replicate.ReadMessage(bytes.NewReader(encBase))
	if err != nil || wireBase == nil {
		return fmt.Errorf("ReadMessage of an encoded base: %v", err)
	}
	replica, err := network.NewPredictorFromBase(wireBase.Parts)
	if err != nil {
		return err
	}
	applyDelta := pr.time("network.apply_delta_ms", nsPerMS, 5, 1, func(int) {
		if _, e := replica.ApplyDelta(msg.Parts); e != nil {
			encErr = e
		}
	})
	if encErr != nil {
		return encErr
	}

	// int8: pack at publish, then the forward walks the replica serves from.
	q := probeSet(in.f.test, probeQueries)
	nq := len(q.xs)
	b32 := min(batchQueries, nq)
	rw := net.Output().SnapshotWeights()
	cw := net.Hidden().SnapshotWeights()
	var rq *quant.RowQ
	pr.time("quant.pack_rows_ms", nsPerMS, 3, 1, func(int) {
		if rq, err = quant.QuantizeRowWeights(rw, replicaQuantBits); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	f32Bytes := float64(cfg.OutputDim*cfg.HiddenDim*4 + cfg.OutputDim*4)
	res.set("quant.packed_ratio", float64(rq.PackedBytes())/f32Bytes)

	hs := make([][]float32, nq)
	qas := make([][]uint8, nq)
	sas := make([]float32, nq)
	zps := make([]int32, nq)
	for i := range hs {
		hs[i] = make([]float32, cfg.HiddenDim)
		qas[i] = make([]uint8, cfg.HiddenDim)
	}
	hiddenFwd := pr.time("layer.hidden_forward_us", nsPerUS, nq/4, 4, func(i int) { cw.Forward(ks, q.xs[i%nq], hs[i%nq]) })
	for i := range hs {
		sas[i], zps[i] = quant.QuantizeActs(hs[i], qas[i])
	}
	scores := make([]float32, cfg.OutputDim)
	pr.time("quant.forward_all_us", nsPerUS, 32, 1, func(i int) {
		rq.ForwardAll(ks, qas[i%nq], sas[i%nq], zps[i%nq], scores, 1)
	})
	pr.time("layer.forward_all_us", nsPerUS, 32, 1, func(i int) { rw.ForwardAll(ks, hs[i%nq], nil, scores, 1) })
	outs := make([][]float32, b32)
	for i := range outs {
		outs[i] = make([]float32, cfg.OutputDim)
	}
	qWalk := pr.time("quant.forward_all_batch32_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) {
		rq.ForwardAllBatch(ks, qas[:b32], sas[:b32], zps[:b32], outs)
	}) / float64(b32)
	pr.time("layer.forward_all_batch32_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) {
		rw.ForwardAllBatch(ks, hs[:b32], make([][]bf16.BF16, b32), outs)
	})
	var isink int32
	pr.time("simd.dot_u8s8_ns", 1, 64, 64, func(i int) { isink += ks.DotU8S8(qas[i%nq], rq.Row8(int32(i%cfg.OutputDim))) })
	pr.cost("simd.dot_u8s8_ns", 2*float64(cfg.HiddenDim), 2*float64(cfg.HiddenDim))
	_ = isink

	// Predictor level, f32 beside int8 on the same weights.
	qp, err := next.Quantize(replicaQuantBits)
	if err != nil {
		return err
	}
	ks32 := make([]int, b32)
	for i := range ks32 {
		ks32[i] = topK
	}
	pr.time("network.predict_exact_f32_us", nsPerUS, 32, 1, func(i int) { next.Predict(q.xs[i%nq], topK) })
	pr.time("network.predict_exact_int8_us", nsPerUS, 32, 1, func(i int) { qp.Predict(q.xs[i%nq], topK) })
	pr.time("network.predict_batch32_f32_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) { next.PredictBatchK(q.xs[:b32], ks32) })
	int8Batch := pr.time("network.predict_batch32_int8_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) {
		qp.PredictBatchK(q.xs[:b32], ks32)
	}) / float64(b32)

	// Shares. The reader's request is batchQueries int8 queries; the
	// trainer's publish interval is publishEvery steps.
	perRequest := float64(batchQueries)
	res.set("serving.share_pct", 100*max(1-perRequest*int8Batch/reqP50, 0))
	res.set("quant.share_pct", 100*perRequest*qWalk/reqP50)
	res.set("layer.share_pct", 100*perRequest*hiddenFwd/reqP50)
	interval := publishEvery * stepP50
	res.set("replicate.share_pct", 100*(hubPublish+readMessage+applyDelta)/interval)
	return nil
}
