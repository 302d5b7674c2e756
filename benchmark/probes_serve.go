package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/slide"
)

// probeQueries is how many held-out queries the serving probes replay.
const probeQueries = 64

// traceServe is the traced run of a serving workload: an untraced and a
// traced stretch of the closed-loop clients, the server's own counters,
// then probes of each layer a request passes through.
func traceServe(c *runConfig, res *result, in *serveInstance, l *load, cursor *atomic.Int64) (*result, error) {
	tr := newTracer()
	plain := l.run(c.seconds/4, cursor)
	l.tr = tr
	traced := l.run(c.seconds/4, cursor)
	l.tr = nil
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.check("served_labels", res.Failed == 0, "%d of %d requests failed", res.Failed, res.Attempted)
	if len(plain.ops) == 0 || len(traced.ops) == 0 {
		return nil, fmt.Errorf("%d and %d requests completed in the two stretches", len(plain.ops), len(traced.ops))
	}
	a, b := meanThroughput(plain.ops, 1), meanThroughput(traced.ops, 1)
	res.set("bench.trace_overhead_pct", 100*(a-b)/a)
	lat := latenciesMS(plain.ops)
	res.set("serving.latency_p95_ms", quantile(lat, 0.95))
	res.set("serving.latency_p99_ms", quantile(lat, 0.99))

	if err := serverCounters(res, in.http.url); err != nil {
		return nil, err
	}

	if err := serveProbes(c, res, in, l, quantile(lat, 0.5)/1e3); err != nil {
		return nil, err
	}
	if err := tr.write(c.outDir, c.workload); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// serverCounters reads the batcher's own counters from the server's /stats.
func serverCounters(res *result, baseURL string) error {
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var st struct {
		MeanBatch float64 `json:"mean_batch"`
		Shed      float64 `json:"shed"`
		Deadlined float64 `json:"deadlined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	res.set("serving.mean_batch_size", st.MeanBatch)
	res.set("serving.shed_429", st.Shed)
	res.set("serving.deadlined", st.Deadlined)
	return nil
}

// queries are held-out samples in the forms the probed functions take.
type queries struct {
	xs      []sparse.Vector
	labels  [][]int32
	entries []slide.BatchEntry
	samples []slide.Sample
}

func probeSet(test *slide.Dataset, n int) *queries {
	n = min(n, test.Len())
	q := &queries{}
	for i := 0; i < n; i++ {
		s := test.Sample(i)
		q.xs = append(q.xs, sparse.Vector{Indices: s.Indices, Values: s.Values})
		q.labels = append(q.labels, s.Labels)
		q.entries = append(q.entries, slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: topK})
		q.samples = append(q.samples, slide.Sample{Indices: s.Indices, Values: s.Values})
	}
	return q
}

// serveProbes fills the simd, lsh, layer, metrics, network and serving
// metrics of a serving workload. reqP50 is the end-to-end median request
// latency in seconds, the base of the share figures.
func serveProbes(c *runConfig, res *result, in *serveInstance, l *load, reqP50 float64) error {
	pr := newProber(res)
	ks := pr.ks
	sampled := c.workload == "serve_sampled"
	perRequest := float64(len(l.reqs[0].samples))
	q := probeSet(in.f.test, probeQueries)
	nq := len(q.xs)
	b32 := min(batchQueries, nq)

	// Layer views of the same shape, trained on the same data for as long
	// as the served model was.
	train, _, err := in.f.internal()
	if err != nil {
		return err
	}
	twin, err := trainedTwin(in.f, train, c.seed, c.procs, 0, layer.FP32, c.pretrainSteps(servePretrain), 0)
	if err != nil {
		return err
	}
	if err := persistProbes(pr, twin.net, c.procs); err != nil {
		return err
	}
	cfg := twin.net.Config()
	cw, rw, ts := twin.net.Hidden().SnapshotWeights(), twin.net.Output().SnapshotWeights(), twin.net.Tables()
	hs := make([][]float32, nq)
	for i := range hs {
		hs[i] = make([]float32, cfg.HiddenDim)
	}
	hiddenFwd := pr.time("layer.hidden_forward_us", nsPerUS, nq/4, 4, func(i int) { cw.Forward(ks, q.xs[i%nq], hs[i%nq]) })

	scores := make([]float32, cfg.OutputDim)
	var walk, lshPerQuery float64
	if sampled {
		lshPerQuery, walk = sampledLayerProbes(pr, ts, rw, q, hs, cfg.MinActive, c.seed)
	} else {
		fwdAll := pr.time("layer.forward_all_us", nsPerUS, 32, 1, func(i int) { rw.ForwardAll(ks, hs[i%nq], nil, scores, 1) })
		outs := make([][]float32, b32)
		for i := range outs {
			outs[i] = make([]float32, cfg.OutputDim)
		}
		fwdBatch := pr.time("layer.forward_all_batch32_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) {
			rw.ForwardAllBatch(ks, hs[:b32], make([][]bf16.BF16, b32), outs)
		}) / float64(b32)
		walk = fwdBatch
		if perRequest == 1 {
			walk = fwdAll
		}
		buf := make([]int32, 0, topK)
		pr.time("metrics.topk_us", nsPerUS, 32, 1, func(int) { buf = metrics.TopKInto(scores, topK, buf[:0]) })

		h := float64(cfg.HiddenDim)
		rows := make([][]float32, cfg.OutputDim)
		all := make([]int32, cfg.OutputDim)
		for i := range rows {
			rows[i], all[i] = rw.RowF32(i, nil), int32(i)
		}
		var sink float32
		pr.time("simd.dot_ns", 1, 64, 64, func(i int) { sink += ks.Dot(rows[i%len(rows)], hs[i%nq]) })
		pr.cost("simd.dot_ns", 8*h, 2*h)
		pr.time("simd.dot_many_bias_ns_per_row", float64(cfg.OutputDim), 16, 1, func(i int) {
			ks.DotManyBias(rows, rw.Bias(), all, hs[i%nq], scores)
		})
		pr.cost("simd.dot_many_bias_ns_per_row", 4*h+8, 2*h+1)
		idx := 0
		pr.time("simd.argmax_ns", 1, 64, 4, func(int) { idx += ks.ArgMax(scores) })
		pr.cost("simd.argmax_ns", 4*float64(cfg.OutputDim), float64(cfg.OutputDim))
		_, _ = sink, idx
	}

	// The predictor the workload serves.
	p := in.pred.Raw()
	var compute float64 // model time behind one request, seconds
	exact := pr.time("network.predict_exact_f32_us", nsPerUS, 32, 1, func(i int) { p.Predict(q.xs[i%nq], topK) })
	ks32 := make([]int, b32)
	for i := range ks32 {
		ks32[i] = topK
	}
	batch := pr.time("network.predict_batch32_f32_us_per_query", nsPerUS*float64(b32), 5, 1, func(int) {
		p.PredictBatchK(q.xs[:b32], ks32)
	}) / float64(b32)
	samp := pr.time("network.predict_sampled_us", nsPerUS, nq, 1, func(i int) { _, _ = p.PredictSampled(q.xs[i%nq], topK) })
	switch {
	case sampled:
		compute = perRequest * samp
	case perRequest == 1:
		compute = exact
	default:
		compute = perRequest * batch
	}

	if !sampled { // the sampled path bypasses the batcher
		if err := batcherProbe(pr, in.pred, q, int(perRequest), c.procs); err != nil {
			return err
		}
	}
	direct, err := directProbe(pr, in, l, q, sampled)
	if err != nil {
		return err
	}
	res.set("serving.http_overhead_us", max(direct.rtt-direct.compute, 0)*1e6)

	res.set("serving.share_pct", 100*max(1-compute/reqP50, 0))
	res.set("layer.share_pct", 100*perRequest*(hiddenFwd+walk)/reqP50)
	res.set("lsh.share_pct", 100*perRequest*lshPerQuery/reqP50)
	return nil
}

// sampledLayerProbes times the sampled path's stages per query: hash the
// hidden activation, probe the buckets, score only the candidates. It
// returns the lsh and the output-layer seconds per query.
func sampledLayerProbes(pr *prober, ts *lsh.TableSet, rw *layer.RowWeights, q *queries, hs [][]float32, minActive int, seed uint64) (lshSecs, walkSecs float64) {
	ks, nq := pr.ks, len(q.xs)
	outDim := len(rw.Bias())
	hashes := make([][]uint32, nq)
	for i := range hashes {
		hashes[i] = make([]uint32, ts.Tables())
	}
	hash := pr.time("lsh.hash_dense_us", nsPerUS, nq/4, 4, func(i int) { ts.HashDense(hs[i%nq], hashes[i%nq]) })
	dedup := lsh.NewDedup(outDim)
	active := make([][]int32, nq)
	query := pr.time("lsh.query_us", nsPerUS, nq/4, 4, func(i int) {
		k := i % nq
		act := active[k][:0]
		dedup.Begin()
		ts.QueryHashes(hashes[k], func(id int32) {
			if !dedup.Seen(id) {
				act = append(act, id)
			}
		})
		active[k] = act
	})
	var candidates, found, total int
	rng := rand.New(rand.NewPCG(seed, 0xac71))
	for k := range active {
		candidates += len(active[k])
		dedup.Begin()
		for _, id := range active[k] {
			dedup.Seen(id)
		}
		for _, y := range q.labels[k] {
			total++
			if dedup.Seen(y) {
				found++
			}
		}
		// Top up to the minimum as the predictor does. (A label stamped above
		// but not retrieved can no longer be drawn; at ~3 labels against
		// thousands of rows that does not move a timing.)
		for len(active[k]) < minActive {
			if id := int32(rng.IntN(outDim)); !dedup.Seen(id) {
				active[k] = append(active[k], id)
			}
		}
	}
	pr.res.set("lsh.candidates_per_query", float64(candidates)/float64(nq))
	pr.res.set("lsh.label_recall", float64(found)/float64(max(total, 1)))
	pr.res.set("lsh.bucket_mean_occupancy", ts.Stats().MeanPerBucket)
	logits := make([]float32, outDim)
	walk := pr.time("layer.forward_active_us", nsPerUS, nq/4, 4, func(i int) {
		k := i % nq
		rw.ForwardActive(ks, active[k], hs[k], nil, logits[:len(active[k])])
	})
	return hash + query, walk
}

// batcherProbe drives serving.Batcher directly, without HTTP: procs
// closed-loop submitters sending what one request of the workload carries.
func batcherProbe(pr *prober, pred *slide.Predictor, q *queries, perRequest, procs int) error {
	b := serving.NewBatcher(serving.NewSnapshotManager(pred), serving.Config{})
	defer b.Close()
	const each = 40
	var (
		mu   sync.Mutex
		secs []float64
		errs []error
		wg   sync.WaitGroup
	)
	nq := len(q.entries)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var err error
				t0 := time.Now()
				if perRequest == 1 {
					_, err = b.Submit(context.Background(), q.entries[(w*each+i)%nq])
				} else {
					_, err = b.SubmitMany(context.Background(), q.entries[:min(perRequest, nq)])
				}
				d := time.Since(t0).Seconds()
				mu.Lock()
				secs = append(secs, d)
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("batcher probe: %w", errs[0])
	}
	submit := pr.samples("serving.batcher_submit_us", nsPerUS, secs)
	// What a flush of the observed mean size costs the model; the rest of a
	// submit is waiting for the batch to fill and for a worker.
	size := int(math.Round(b.Stats().MeanBatch))
	size = max(1, min(size, nq))
	predict := medianOf(5, func() { _, _ = pred.PredictEntries(q.entries[:size]) })
	pr.res.set("serving.batch_fill_wait_us", max(submit-predict, 0)*1e6)
	return nil
}

// medianOf is the median seconds of n calls to fn.
func medianOf(n int, fn func()) float64 {
	secs := make([]float64, n)
	for i := range secs {
		t0 := time.Now()
		fn()
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs)
}

type directTimes struct{ rtt, compute float64 }

// directProbe measures what HTTP and JSON add: the same requests against a
// server in Direct mode (no batcher) from one client, against the model
// call that server makes for them.
func directProbe(pr *prober, in *serveInstance, l *load, q *queries, sampled bool) (directTimes, error) {
	srv := serving.NewServer(in.pred, serving.ServerConfig{Direct: true})
	defer srv.Close()
	hs, err := serveLoopback(srv.Mux())
	if err != nil {
		return directTimes{}, err
	}
	defer hs.close()
	dl := *l
	dl.clients, dl.tr, dl.client = 1, nil, nil
	defer dl.close()
	dl.url = hs.url + "/predict"
	if l.batch {
		dl.url = hs.url + "/predict/batch"
	}
	var cursor atomic.Int64
	w := dl.run(0.4, &cursor)
	if w.failed > 0 || len(w.ops) == 0 {
		return directTimes{}, fmt.Errorf("direct-mode probe: %d of %d requests failed", w.failed, w.attempted)
	}
	per := len(l.reqs[0].samples)
	n := min(per, len(q.samples))
	var compute float64
	switch {
	case sampled:
		compute = medianOf(5, func() {
			for _, s := range q.samples[:n] {
				_, _ = in.pred.PredictSampled(s.Indices, s.Values, topK)
			}
		})
	case per == 1:
		compute = medianOf(16, func() { in.pred.Predict(q.samples[0].Indices, q.samples[0].Values, topK) })
	default:
		compute = medianOf(5, func() { _, _ = in.pred.PredictBatch(q.samples[:n], topK) })
	}
	pr.time("serving.publish_swap_us", nsPerUS, 5, 1, func(int) { srv.Publish(in.pred) })
	return directTimes{rtt: quantile(latenciesMS(w.ops), 0.5) / 1e3, compute: compute}, nil
}
