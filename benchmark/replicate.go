package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/internal/sparse"
	"github.com/slide-cpu/slide/slide"
)

const (
	replPretrain     = 60 // single-worker steps before the base is published
	publishEvery     = 10 // trainer steps per published delta
	exactDeltas      = 20 // deltas (200 steps) whose encoded size is summed: fixed by the seed at W=1
	replicaProbes    = 32 // queries on which the replica's final scores are compared
	verifiedReplies  = 200
	replicaQuantBits = 8
)

// swap is one predictor the replication client handed over.
type swap struct {
	version uint64
	at      time.Time
	p       *network.Predictor
}

// replInstance is the replicated pair: a single-worker trainer publishing
// int8 deltas through a Hub on one loopback listener, and a Client feeding
// a serving.Server on another.
type replInstance struct {
	f       *fixture
	m       *slide.Model
	hub     *replicate.Hub
	hubHTTP *httpServer
	client  *replicate.Client
	stop    context.CancelFunc
	stopped chan struct{}
	replica *serving.Server
	repHTTP *httpServer
	// tr is swapped between an untraced and a traced window while the
	// client goroutine keeps calling onSwap.
	tr      atomic.Pointer[tracer]
	swapped chan struct{} // one token per hand-over, dropped when nobody waits
	// keptFull is set once the reader has kept all the replies it will
	// check; later versions are then logged without their predictor, so the
	// log does not pin every version's copied rows in memory.
	keptFull atomic.Bool

	mu    sync.Mutex
	swaps []swap
	final *network.Predictor // the newest predictor handed over
}

func (in *replInstance) close() {
	in.stop()
	<-in.stopped
	if in.repHTTP != nil {
		in.repHTTP.close()
	}
	if in.replica != nil {
		in.replica.Close()
	}
	in.hubHTTP.close()
}

// waitVersion blocks until the replica has applied version v, or the
// timeout passes.
func (in *replInstance) waitVersion(v uint64, timeout time.Duration) bool {
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for in.client.Stats.Version.Load() < v {
		select {
		case <-in.swapped:
		case <-expired.C:
			return false
		}
	}
	return true
}

// onSwap is the client's hand-over hook: log the predictor, then hot-swap
// it into the replica's serving pipeline (once that exists).
func (in *replInstance) onSwap(p *network.Predictor, version uint64) {
	now := time.Now()
	logged := swap{version: version, at: now}
	if !in.keptFull.Load() {
		logged.p = p
	}
	in.mu.Lock()
	in.swaps = append(in.swaps, logged)
	in.final = p
	replica := in.replica
	in.mu.Unlock()
	if replica != nil {
		tr := in.tr.Load()
		id := tr.begin("serving.Server.Publish", -1, int64(version))
		replica.Publish(replicate.NewServed(p, version))
		tr.end(id)
	}
	select {
	case in.swapped <- struct{}{}:
	default:
	}
}

func (in *replInstance) swapLog() []swap {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]swap(nil), in.swaps...)
}

func buildReplicated(c *runConfig) (*replInstance, error) {
	f, err := amazonS(c.seed, c.smoke)
	if err != nil {
		return nil, err
	}
	m, err := f.newModel(c.seed, 1, 0) // one worker: weights and delta bytes are a function of the seed
	if err != nil {
		return nil, err
	}
	in := &replInstance{f: f, m: m, hub: replicate.NewHub(), stopped: make(chan struct{}), swapped: make(chan struct{}, 1)}
	if err := f.pretrain(m, c.pretrainSteps(replPretrain)); err != nil {
		return nil, err
	}
	m.EnableDeltas()
	base, _ := m.SnapshotDelta()
	if err := f.assertTrained(base, c.smoke); err != nil {
		return nil, err
	}
	if err := in.hub.SetQuantize(replicaQuantBits); err != nil {
		return nil, err
	}
	if err := in.hub.Publish(base.Raw(), nil); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	in.hub.Register(mux)
	if in.hubHTTP, err = serveLoopback(mux); err != nil {
		return nil, err
	}
	in.client = &replicate.Client{
		BaseURL: in.hubHTTP.url, RequireQuantized: replicaQuantBits, JitterSeed: c.seed,
		OnSwap: in.onSwap,
	}
	ctx, cancel := context.WithCancel(context.Background())
	in.stop = cancel
	go func() {
		defer close(in.stopped)
		_ = in.client.Run(ctx) // always ctx.Err(); failures show in client.Stats
	}()
	// The replica can serve once the base has arrived.
	if !in.waitVersion(1, 10*time.Second) {
		in.close()
		return nil, fmt.Errorf("replica did not sync a base within 10s")
	}
	first := in.swapLog()[0]
	in.mu.Lock()
	in.replica = serving.NewServer(replicate.NewServed(first.p, first.version), serving.ServerConfig{})
	in.mu.Unlock()
	if in.repHTTP, err = serveLoopback(in.replica.Mux()); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// published is one version the trainer put on the hub.
type published struct {
	version uint64
	at      time.Time // when SnapshotDelta was called
}

// publisher is the trainer-side hook of the replicated window: every
// publishEvery steps, SnapshotDelta then Hub.Publish.
type publisher struct {
	in    *replInstance
	tr    *tracer
	every int64
	log   []published
	last  *slide.Predictor // the newest published snapshot
	err   error

	// The first exactDeltas deltas cover a fixed step range at one worker,
	// so their encoded size is a function of the seed alone. Each is encoded
	// a second time in account, off the clock, and let go.
	unaccounted            *slide.Delta
	deltaBytes, deltaSteps int
}

func (p *publisher) step(step int64) {
	if step%p.every != 0 || p.err != nil {
		return
	}
	version := p.in.hub.Version() + 1
	t0 := time.Now()
	root := p.tr.begin("publish", -1, int64(version))
	sd := p.tr.begin("slide.Model.SnapshotDelta", root, int64(version))
	pred, d := p.in.m.SnapshotDelta()
	p.tr.end(sd)
	hp := p.tr.begin("replicate.Hub.Publish", root, int64(version))
	p.err = p.in.hub.Publish(pred.Raw(), d.Raw())
	p.tr.end(hp)
	p.tr.end(root)
	p.log = append(p.log, published{version: version, at: t0})
	p.last = pred
	if len(p.log) <= exactDeltas {
		p.unaccounted = d
	}
}

// account runs in the untimed part of the step hook.
func (p *publisher) account(int64) {
	d := p.unaccounted
	if d == nil || p.err != nil {
		return
	}
	p.unaccounted = nil
	enc, err := replicate.EncodeDeltaQ(d.Raw(), 1, 2, replicaQuantBits)
	if err != nil {
		p.err = err
		return
	}
	p.deltaBytes += len(enc)
	p.deltaSteps += int(d.ToStep() - d.FromStep())
}

// servedReply is one reply the reader kept for checking after the window.
type servedReply struct {
	req     int
	version uint64
	labels  [][]int32
}

// replWindow is one stretch of the trainer publishing beside the reader
// reading.
type replWindow struct {
	train  *trainWindow
	reader *loadWindow
}

// window runs the trainer (publishing through pub) and the reader side by
// side for the given seconds; the trainer keeps going until pub has made
// needPublishes in total.
func (in *replInstance) window(l *load, pub *publisher, cursor *atomic.Int64, seconds float64, minSteps, needPublishes int, ref *reference, tr *tracer) (*replWindow, error) {
	in.tr.Store(tr)
	l.tr, pub.tr = tr, tr
	w := &replWindow{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.reader = l.run(seconds, cursor)
	}()
	var err error
	w.train, err = trainRun{
		in: &trainInstance{f: in.f, m: in.m}, seconds: seconds, minSteps: minSteps,
		publish: pub.step, atStep: pub.account, done: func() bool { return len(pub.log) >= needPublishes }, ref: ref, tr: tr,
	}.run()
	wg.Wait()
	if err == nil && pub.err != nil {
		err = fmt.Errorf("hub publish: %w", pub.err)
	}
	if err == nil && len(w.reader.ops) == 0 {
		err = fmt.Errorf("no reader request completed in %gs", seconds)
	}
	return w, err
}

func runReplicate(c *runConfig) (*result, error) {
	res := newResult(c)
	// One thread: a slice runs in the single-worker trainer's hook, beside
	// the reader, as the trainer itself does.
	ref := c.reference(1)
	in, setupS, err := repeatSetup(c, ref, func() (*replInstance, error) { return buildReplicated(c) }, (*replInstance).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if !c.trace {
		res.setup(setupS, ref)
	}

	// The reader: one closed-loop client sending exact 32-query batches to
	// the replica for as long as the trainer trains.
	l := &load{
		url: in.repHTTP.url + "/predict/batch", batch: true, clients: 1,
		truth: func(i int) []int32 { return in.f.test.Sample(i).Labels },
	}
	defer l.close()
	if l.reqs, err = buildRequests(in.f.test, batchQueries, false, c.seed); err != nil {
		return nil, err
	}
	// Both are the reader goroutine's alone until it has stopped.
	var kept []servedReply
	var mixed int64
	l.verify = func(rq *request, rp reply) bool {
		switch {
		case rp.version == 0:
			// The batch split across two flushes with a hot-swap between
			// them, so the server names no single version: legitimate, and
			// not attributable to one predictor.
			mixed++
		case len(kept) < verifiedReplies:
			kept = append(kept, servedReply{req: rq.id, version: rp.version, labels: rp.labels})
			if len(kept) == verifiedReplies {
				in.keptFull.Store(true)
			}
		}
		return true
	}

	pub := &publisher{in: in, every: publishEvery}
	minDeltas, blockSteps := exactDeltas, rebuildEvery
	if c.smoke {
		minDeltas, blockSteps = 2, 1
	}
	var (
		cursor  atomic.Int64
		tr      *tracer
		windows []*replWindow
	)
	if c.trace {
		// An untraced stretch, then a traced one: their difference is the
		// tracing overhead.
		tr = newTracer()
		w, err := in.window(l, pub, &cursor, c.seconds/4, 0, 0, nil, nil)
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
	}
	seconds := c.seconds
	if c.trace {
		seconds = c.seconds / 4
	}
	w, err := in.window(l, pub, &cursor, seconds, minBlocks*blockSteps, minDeltas, ref, tr)
	if err != nil {
		return nil, err
	}
	windows = append(windows, w)

	// Let the replica catch up with the last published version.
	lastVersion := in.hub.Version()
	in.waitVersion(lastVersion, 10*time.Second)
	swaps := in.swapLog()
	st := &in.client.Stats

	var trainFailed, steps int64
	reader := &loadWindow{}
	for _, w := range windows {
		trainFailed += w.train.failed
		steps += int64(len(w.train.ops))
		reader.attempted += w.reader.attempted
		reader.failed += w.reader.failed
		reader.hits += w.reader.hits
		reader.queries += w.reader.queries
	}
	res.Attempted = steps + reader.attempted
	res.Failed = trainFailed + reader.failed
	res.Counts["steps"] = steps
	res.Counts["publishes"] = int64(len(pub.log))
	res.Counts["requests"] = reader.attempted
	res.Counts["queries"] = reader.queries
	res.Counts["mixed_version_replies"] = mixed

	res.check("finite_loss", trainFailed == 0, "%d of %d steps non-finite", trainFailed, steps)
	monotonic := true
	for i := 1; i < len(swaps); i++ {
		monotonic = monotonic && swaps[i].version == swaps[i-1].version+1
	}
	res.check("replica_followed", monotonic && swaps[len(swaps)-1].version == lastVersion &&
		st.Resyncs.Load() == 0 && st.Corrupt.Load() == 0 && st.Quarantined.Load() == 0,
		"replica at v%d of v%d over %d swaps, versions +1 each: %v; resyncs %d corrupt %d quarantined %d",
		swaps[len(swaps)-1].version, lastVersion, len(swaps), monotonic,
		st.Resyncs.Load(), st.Corrupt.Load(), st.Quarantined.Load())
	ok, note := replicaMatchesTrainer(in, pub, swaps)
	res.check("replica_equals_local_quantize", ok, "%s", note)
	bad, checked := verifyReplies(in, l, kept, swaps)
	res.Failed += int64(bad)
	res.check("served_labels", bad == 0 && reader.failed == 0,
		"%d of %d kept replies differ from PredictEntries on the version that served them; %d of %d requests failed",
		bad, checked, reader.failed, reader.attempted)
	p1 := float64(reader.hits) / float64(max(reader.queries, 1))
	res.check("p_at_1_floor", c.smoke || p1 >= in.f.p1Floor, "served p@1 %.4f over %d queries, floor %.2f", p1, reader.queries, in.f.p1Floor)

	res.Exact["delta_bytes_per_step"] = fmt.Sprintf("%d/%d", pub.deltaBytes, pub.deltaSteps)

	if c.trace {
		return traceReplicate(c, res, in, tr, windows[0], windows[1], pub, swaps, float64(pub.deltaBytes)/float64(max(pub.deltaSteps, 1)))
	}
	res.window(ref)
	// The write side's throughput and the read side's latency: with one
	// closed-loop reader, its queries per second are its latency over again.
	res.setRate("throughput", summarize(blockThroughput(w.train.ops, blockSteps)))
	res.setTime("latency_p50_ms", quantile(latenciesMS(w.reader.ops), 0.5), res.Reference.WindowFactor)
	res.set("p_at_1", p1)
	res.finish()
	return res, nil
}

// publishToServedMS is, per published version, the time from the
// SnapshotDelta call to the replica's OnSwap for that version.
func publishToServedMS(log []published, swaps []swap) []float64 {
	swapAt := map[uint64]time.Time{}
	for _, s := range swaps {
		swapAt[s.version] = s.at
	}
	var out []float64
	for _, p := range log {
		if at, ok := swapAt[p.version]; ok {
			out = append(out, at.Sub(p.at).Seconds()*1e3)
		}
	}
	return out
}

// replicaMatchesTrainer compares the replica's final predictor with a local
// Quantize of the trainer's last published snapshot: full score vectors on
// replicaProbes test samples must be equal bit for bit.
func replicaMatchesTrainer(in *replInstance, pub *publisher, swaps []swap) (bool, string) {
	if len(pub.log) == 0 || len(swaps) == 0 {
		return false, "nothing published or nothing applied"
	}
	last := pub.log[len(pub.log)-1]
	final := swaps[len(swaps)-1]
	if final.version != last.version {
		return false, fmt.Sprintf("replica stopped at v%d, trainer published v%d", final.version, last.version)
	}
	local, err := pub.last.Quantize(replicaQuantBits)
	if err != nil {
		return false, err.Error()
	}
	n := min(replicaProbes, in.f.test.Len())
	a := make([]float32, in.f.test.NumLabels())
	b := make([]float32, in.f.test.NumLabels())
	for i := 0; i < n; i++ {
		s := in.f.test.Sample(i)
		local.Scores(s.Indices, s.Values, a)
		in.final.Scores(sparse.Vector{Indices: s.Indices, Values: s.Values}, b)
		for j := range a {
			if a[j] != b[j] {
				return false, fmt.Sprintf("probe %d label %d: local %v, replica %v", i, j, a[j], b[j])
			}
		}
	}
	return true, fmt.Sprintf("v%d: %d probes x %d scores equal to a local Quantize(%d) of the trainer's snapshot",
		final.version, n, len(a), replicaQuantBits)
}

// verifyReplies recomputes kept replies with PredictEntries on the very
// predictor version that served them.
func verifyReplies(in *replInstance, l *load, kept []servedReply, swaps []swap) (bad, checked int) {
	byVersion := map[uint64]*network.Predictor{}
	for _, s := range swaps {
		byVersion[s.version] = s.p
	}
	for _, k := range kept {
		p := byVersion[k.version]
		if p == nil {
			bad++
			continue
		}
		rq := &l.reqs[k.req]
		entries := make([]slide.BatchEntry, len(rq.samples))
		for i, s := range rq.samples {
			smp := in.f.test.Sample(s)
			entries[i] = slide.BatchEntry{Indices: smp.Indices, Values: smp.Values, K: topK}
		}
		want, err := replicate.NewServed(p, k.version).PredictEntries(entries)
		if err != nil {
			bad++
			continue
		}
		for i := range want {
			if !slices.Equal(want[i], k.labels[i]) {
				bad++
				break
			}
		}
		checked++
	}
	return bad, checked
}
