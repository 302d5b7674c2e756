// Command slide-serve is an HTTP JSON prediction server over a SLIDE model
// — the heavy-traffic deployment scenario the snapshot API exists for.
// Concurrent /predict requests are coalesced by a dynamic micro-batcher
// into fused batch forwards on an immutable Predictor snapshot (per-request
// k is honored inside the shared batch), a bounded admission queue sheds
// overload with 429 + Retry-After, and new versioned snapshots hot-swap in
// without stalling in-flight batches. Exactly one of three sources
// supplies the snapshots:
//
//	slide-serve -model model.slide                  # a trained checkpoint
//	slide-serve -demo -demo-scale 1e-6 -refresh 20  # online training on a synthetic Amazon-670K-like workload
//	slide-serve -follow http://trainer:8080         # another slide-serve's -replicate stream
//
// Endpoints:
//
//	POST /predict        {"indices":[...],"values":[...],"k":5,"sampled":false,"deadline_ms":250}
//	POST /predict/batch  {"samples":[{"indices":[...]},...],"k":5,"deadline_ms":250}
//	GET  /healthz        model summary (back-compat health check)
//	GET  /healthz/live   liveness: process is up (always 200)
//	GET  /healthz/ready  readiness: 503 when the queue is saturated, the snapshot is stale or the server is draining
//	GET  /stats          queue depth, batch-size histogram, p50/p99, snapshot version/age
//
// /predict is a /predict/batch of one sample. Under the micro-batcher, a
// request carrying deadline_ms (or running under -default-deadline) is
// answered 504 when its exact (not sampled) entries cannot be served within
// its budget. -no-batch serves every request with its own forward pass (the
// A/B baseline for cmd/slide-loadgen) and checks no deadlines. Under
// sustained queue pressure with -degrade-high set, the server downshifts to
// sampled (LSH) prediction — responses are marked "degraded":true — before
// it sheds.
//
// With -replicate the server also exposes GET /replicate/base,
// /replicate/deltas and /replicate/status: the demo trainer publishes
// sparse deltas — only the rows SLIDE's sampled training touched since the
// last refresh, int8-packed under -quantize 8 — to any number of followers.
//
// A -follow server bootstraps from a base snapshot (or exits after
// -sync-timeout, naming the last sync failure), long-polls the deltas,
// applies them copy-on-write and answers byte-identically to its hub at
// each version. A gap, CRC failure or config mismatch never tears the
// served model: it re-syncs from a fresh base after a capped-exponential
// pause whose jitter -seed fixes. /healthz/ready also answers 503 when the
// stream is disconnected (naming the last failure) or more than
// -max-version-lag versions behind, and /stats adds replica_version,
// trainer_version, deltas_applied, resyncs, corrupt, quarantined (refused
// non-finite weights) and resync_backoff_ms. A follower has no deltas to
// re-publish, so -follow refuses -replicate; its -quantize 8 refuses any
// stream that is not int8. -chaos arms the deterministic fault injector for
// self-healing drills: 'replicate.recv@3=err' fails the third stream fetch.
//
// A flag the source ignores is refused: -demo-scale, -refresh and -shards
// are -demo's, -max-version-lag, -poll-timeout and -sync-timeout -follow's,
// -seed both of theirs; the rest apply to every source.
//
// SIGTERM/SIGINT drains: readiness flips to 503, in-flight batches flush,
// and the process exits 0. A second signal kills it immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

// options are the flags that pick the snapshot source and shape it.
type options struct {
	modelPath, follow        string
	demo, replicate, noBatch bool
	demoScale                float64
	refresh, shards, qbits   int
	seed                     uint64
	maxLag                   int64
	pollTimeout, syncTimeout time.Duration
}

func main() {
	var o options
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&o.modelPath, "model", "", "checkpoint to serve (written by Model.SaveFile)")
	k := flag.Int("k", 5, "default top-k when a request omits k")
	flag.BoolVar(&o.demo, "demo", false, "train a synthetic model instead of loading a checkpoint")
	flag.Float64Var(&o.demoScale, "demo-scale", 1e-6, "demo workload scale (fraction of Amazon-670K dims)")
	flag.IntVar(&o.refresh, "refresh", 20, "demo: batches between snapshot refreshes (0 = freeze after warmup)")
	flag.IntVar(&o.shards, "shards", 0, "demo: output-layer shards for the deterministic sharded trainer (0 = HOGWILD)")
	flag.Uint64Var(&o.seed, "seed", 42, "demo RNG seed; under -follow, the seed of the deterministic re-sync backoff jitter (desynchronizes a fleet reproducibly)")
	flag.BoolVar(&o.noBatch, "no-batch", false, "bypass the micro-batcher: one forward pass per request, no deadline checks (A/B baseline)")
	maxBatch := flag.Int("max-batch", 32, "micro-batcher: flush when this many requests coalesce (a partial batch waits at most the measured flush time)")
	queueCap := flag.Int("queue-cap", 0, "micro-batcher: admission queue bound; overflow sheds with 429 (0 = 8×max-batch)")
	flag.BoolVar(&o.replicate, "replicate", false, "expose /replicate/* so slide-serve -follow processes can follow this server's snapshots")
	flag.IntVar(&o.qbits, "quantize", 0, "serve int8-quantized snapshots: 8; with -replicate the stream ships packed bases and deltas, with -follow the stream must be int8 (0 = full precision, or under -follow whatever the hub streams)")
	flag.StringVar(&o.follow, "follow", "", "replicate from the slide-serve -replicate hub at this base URL, e.g. http://host:8080")
	flag.Int64Var(&o.maxLag, "max-version-lag", 0, "versions behind the trainer before /healthz/ready reports unready (0 = lag never gates readiness)")
	flag.DurationVar(&o.pollTimeout, "poll-timeout", 30*time.Second, "delta long-poll budget per round trip")
	flag.DurationVar(&o.syncTimeout, "sync-timeout", 2*time.Minute, "how long to wait for the initial base sync before giving up")
	chaos := flag.String("chaos", "", "fault-injection scenario, e.g. 'replicate.recv@3=err' (self-healing drills)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for probabilistic chaos rules (p0.x)")
	defaultDeadline := flag.Duration("default-deadline", 0, "micro-batcher: service deadline for requests without deadline_ms; misses answer 504 (0 = none)")
	degradeHigh := flag.Float64("degrade-high", 0, "micro-batcher: queue occupancy fraction that engages degraded (sampled) serving (0 = disabled)")
	degradeLow := flag.Float64("degrade-low", 0, "micro-batcher: queue occupancy fraction that disengages degraded serving (0 = half of -degrade-high)")
	degradeAfter := flag.Int("degrade-after", 0, "micro-batcher: consecutive flush observations before switching modes (0 = default 3)")
	maxStale := flag.Duration("max-snapshot-stale", 0, "snapshot age beyond which /healthz/ready reports unready (0 = never)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("slide-serve: ")
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(o, set); err != nil {
		log.Fatal(err)
	}
	if *chaos != "" {
		plan, err := faultinject.Parse(*chaos, *chaosSeed)
		if err != nil {
			log.Fatal(err)
		}
		faultinject.Arm(plan)
		log.Printf("chaos armed: %s (seed %d)", *chaos, *chaosSeed)
	}
	log.Printf("kernels: %s active (host supports: %v)", slide.KernelInfo(), slide.AvailableKernelModes())

	cfg := serving.ServerConfig{
		DefaultK: *k,
		Direct:   o.noBatch,
		Batch: serving.Config{
			MaxBatch: *maxBatch,
			QueueCap: *queueCap,
			Degrade: serving.DegradePolicy{
				HighWater: *degradeHigh,
				LowWater:  *degradeLow,
				After:     *degradeAfter,
			},
		},
		DefaultDeadline: *defaultDeadline,
		MaxStale:        *maxStale,
	}
	if err := run(*addr, cfg, o); err != nil {
		log.Fatal(err)
	}
}

// sourceFlags maps each flag that only some snapshot sources read to those
// sources; every other flag applies to all three.
var sourceFlags = map[string]string{
	"demo-scale": "-demo", "refresh": "-demo", "shards": "-demo", "seed": "-demo and -follow",
	"max-version-lag": "-follow", "poll-timeout": "-follow", "sync-timeout": "-follow",
}

// checkFlags refuses flag combinations no server can honor: anything but
// exactly one snapshot source, a flag given (set holds the names flag.Visit
// reports) that the source or -no-batch ignores, a follower that would
// re-publish (it holds no network.Delta to put on a hub), and a width other
// than 0 or 8.
func checkFlags(o options, set map[string]bool) error {
	source, n := "", 0
	for name, on := range map[string]bool{"-model": o.modelPath != "", "-demo": o.demo, "-follow": o.follow != ""} {
		if on {
			source, n = name, n+1
		}
	}
	if n != 1 {
		return errors.New("exactly one of -model, -demo and -follow is required")
	}
	for name, readers := range sourceFlags {
		if set[name] && !strings.Contains(readers, source) {
			return fmt.Errorf("-%s does not apply to %s (only to %s)", name, source, readers)
		}
	}
	for _, name := range []string{"max-batch", "queue-cap", "default-deadline", "degrade-high", "degrade-low", "degrade-after"} {
		if o.noBatch && set[name] { // only the micro-batcher reads these
			return fmt.Errorf("-%s does not apply to -no-batch (only to the micro-batcher)", name)
		}
	}
	switch {
	case source == "-follow" && o.replicate:
		return errors.New("-follow cannot be combined with -replicate: a follower has no deltas to re-publish")
	case o.qbits != 0 && o.qbits != 8:
		return fmt.Errorf("-quantize must be 0 or 8 (got %d)", o.qbits)
	}
	return nil
}

func run(addr string, cfg serving.ServerConfig, o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var hub *replicate.Hub
	if o.replicate {
		hub = replicate.NewHub()
		if err := hub.SetQuantize(o.qbits); err != nil {
			return err
		}
	}

	// servable renders a training snapshot at the serving precision:
	// quantized when -quantize is set, the snapshot itself otherwise. The
	// hub always receives the full-precision snapshot (p.Raw()) — the wire
	// layer quantizes at encode time, keeping delta publish O(touched rows).
	servable := func(p *slide.Predictor) (*slide.Predictor, error) {
		if o.qbits == 0 {
			return p, nil
		}
		return p.Quantize(o.qbits)
	}

	var (
		srv        *serving.Server
		m          *slide.Model   // the local model; nil when following
		train      *slide.Dataset // the demo's training set
		stopFollow func()
		err        error
	)
	switch {
	case o.follow != "":
		if srv, stopFollow, err = follow(ctx, cfg, o); err != nil {
			return err
		}
	case o.demo:
		if m, train, err = demoModel(o.demoScale, o.shards, o.seed); err != nil {
			return err
		}
		if hub != nil {
			// Journal from the first snapshot on, so every refresh after the
			// base publishes as a sparse delta.
			m.EnableDeltas()
		}
	default:
		if m, err = slide.LoadFile(o.modelPath); err != nil {
			return err
		}
		log.Printf("loaded %s (step %d)", o.modelPath, m.Steps())
	}
	if m != nil {
		p := m.Snapshot()
		sp, err := servable(p)
		if err != nil {
			return err
		}
		srv = serving.NewServer(sp, cfg)
		// A frozen checkpoint's followers bootstrap from this one base and
		// never see a delta.
		if hub != nil {
			if err := hub.Publish(p.Raw(), nil); err != nil {
				return err
			}
		}
	}
	defer srv.Close()
	if stopFollow != nil {
		// The client stops before the server closes, so no swap lands on a
		// closed server.
		defer stopFollow()
	}

	if train != nil && o.refresh > 0 {
		go backgroundTrain(ctx, m, train, o.refresh, srv, hub, servable)
	}

	mux := srv.Mux()
	httpSrv := &http.Server{Addr: addr, Handler: mux}
	if hub != nil {
		hub.Register(mux)
		// A follower's parked long-poll would hold the drain for up to its
		// 25 s wait; the hub answers it 204 as shutdown starts.
		httpSrv.RegisterOnShutdown(hub.Close)
	}
	errc := make(chan error, 1)
	log.Printf("listening on %s (-no-batch=%t -replicate=%t -follow=%q -quantize=%d)",
		addr, cfg.Direct, hub != nil, o.follow, o.qbits)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: the first SIGTERM/SIGINT flips readiness to 503 (load
	// balancers steer new traffic away) while in-flight batches flush; a
	// second signal kills the process immediately.
	stop() // restore default signal handling: a second SIGTERM is immediate
	log.Printf("draining: admission stopped, flushing in-flight batches")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(shutCtx, httpSrv)
	log.Printf("drain complete")
	return err
}

// follow replicates from the hub at o.follow. It returns the server built
// from the first synced base and a stop func that ends replication, waits
// for the client and logs its counters; or, when no base lands within
// o.syncTimeout, it stops the client and returns an error carrying the
// client's last failure.
func follow(ctx context.Context, cfg serving.ServerConfig, o options) (*serving.Server, func(), error) {
	client := &replicate.Client{
		BaseURL:          o.follow,
		PollTimeout:      o.pollTimeout,
		JitterSeed:       o.seed,
		RequireQuantized: o.qbits,
		// A long-poll must be able to run its course before the transport
		// gives up.
		HTTP: &http.Client{Timeout: o.pollTimeout + 15*time.Second},
	}

	// The serving pipeline needs an initial predictor, which only the first
	// base sync can provide. OnSwap runs on Run's goroutine alone, and srv
	// never changes once first is closed.
	var srv *serving.Server
	first := make(chan struct{})
	client.OnSwap = func(p *network.Predictor, version uint64) {
		sp := replicate.NewServed(p, version)
		if srv == nil {
			srv = serving.NewServer(sp, withReplicaHooks(cfg, client, o.maxLag))
			close(first)
			return
		}
		srv.Publish(sp)
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	go func() { runErr <- client.Run(runCtx) }()
	stop := func() {
		cancelRun()
		<-runErr
		log.Printf("replication stopped: applied %d deltas, %d resyncs",
			client.Stats.DeltasApplied.Load(), client.Stats.Resyncs.Load())
	}

	log.Printf("syncing base snapshot from %s", o.follow)
	var err error
	select {
	case <-first:
		log.Printf("serving v%d (trainer v%d)", client.Stats.Version.Load(), client.Stats.TrainerVersion.Load())
		return srv, stop, nil
	case <-time.After(o.syncTimeout):
		err = fmt.Errorf("no base snapshot from %s within %s", o.follow, o.syncTimeout)
	case <-ctx.Done():
		err = ctx.Err()
	}
	stop()
	if srv != nil { // built between the timeout and the stop
		srv.Close()
	}
	if cause := client.LastError(); cause != nil {
		err = fmt.Errorf("%w: %w", err, cause)
	}
	return nil, nil, err
}

// withReplicaHooks extends the serving config with replication-aware
// readiness and stats.
func withReplicaHooks(cfg serving.ServerConfig, client *replicate.Client, maxLag int64) serving.ServerConfig {
	cfg.ReadyReasons = func() []string {
		var reasons []string
		if client.Stats.Connected.Load() == 0 {
			reason := "replication stream disconnected"
			if err := client.LastError(); err != nil {
				reason += ": " + err.Error()
			}
			reasons = append(reasons, reason)
		}
		if maxLag > 0 {
			tv := int64(client.Stats.TrainerVersion.Load())
			rv := int64(client.Stats.Version.Load())
			if tv-rv > maxLag {
				reasons = append(reasons, fmt.Sprintf(
					"version skew: replica v%d is %d behind trainer v%d (limit %d)",
					rv, tv-rv, tv, maxLag))
			}
		}
		return reasons
	}
	cfg.StatsExtra = func() map[string]any {
		return map[string]any{
			"replica_version":   client.Stats.Version.Load(),
			"trainer_version":   client.Stats.TrainerVersion.Load(),
			"deltas_applied":    client.Stats.DeltasApplied.Load(),
			"resyncs":           client.Stats.Resyncs.Load(),
			"corrupt":           client.Stats.Corrupt.Load(),
			"quarantined":       client.Stats.Quarantined.Load(),
			"resync_backoff_ms": client.Stats.BackoffMS.Load(),
		}
	}
	return cfg
}

// demoModel builds and warm-trains a model on the synthetic Amazon-670K-like
// workload. With shards > 0 the background trainer runs the deterministic
// sharded engine instead of HOGWILD.
func demoModel(scale float64, shards int, seed uint64) (*slide.Model, *slide.Dataset, error) {
	train, _, err := slide.AmazonLike(scale, seed)
	if err != nil {
		return nil, nil, err
	}
	opts := []slide.Option{
		slide.WithDWTA(3, 10),
		slide.WithLearningRate(0.01),
		slide.WithSeed(seed),
	}
	if shards > 0 {
		opts = append(opts, slide.WithShards(shards))
	}
	m, err := slide.New(train.Features(), 32, train.NumLabels(), opts...)
	if err != nil {
		return nil, nil, err
	}
	src, err := slide.NewDatasetSource(train, 64)
	if err != nil {
		return nil, nil, err
	}
	tr, err := slide.NewTrainer(m, src, slide.WithEpochs(1))
	if err != nil {
		return nil, nil, err
	}
	if _, err := tr.Run(context.Background()); err != nil {
		return nil, nil, err
	}
	log.Printf("demo model ready: %d features, %d labels, %d samples (scale %g)",
		train.Features(), train.NumLabels(), train.Len(), scale)
	return m, train, nil
}

// backgroundTrain runs an unbounded Trainer session over the demo dataset,
// publishing a fresh snapshot into the serving pipeline every refresh
// batches. Training, snapshotting and hooks all stay on this single
// goroutine (their documented contract); the serving side reads the
// published snapshots concurrently, and in-flight batches finish on the
// snapshot they captured. With a replication hub the session publishes
// sparse deltas (WithDeltas) so following replicas move only the touched
// rows per refresh. Cancelling ctx stops the session gracefully between
// batches.
func backgroundTrain(ctx context.Context, m *slide.Model, train *slide.Dataset, refresh int, srv *serving.Server, hub *replicate.Hub, servable func(*slide.Predictor) (*slide.Predictor, error)) {
	src, err := slide.NewDatasetSource(train, 64)
	if err != nil {
		log.Printf("background training unavailable: %v", err)
		return
	}
	// publish renders the snapshot at the serving precision before handing
	// it to the pipeline; a snapshot that refuses (non-finite under
	// quantization) is skipped and the server keeps its current version —
	// same quarantine posture as the snapshot manager's own admission.
	publish := func(p *slide.Predictor) {
		sp, err := servable(p)
		if err != nil {
			log.Printf("snapshot publish skipped: %v", err)
			return
		}
		srv.Publish(sp)
	}
	opts := []slide.TrainerOption{
		slide.WithEpochs(0), // unbounded: the ctx ends the session
	}
	if hub != nil {
		opts = append(opts, slide.WithDeltas(refresh, func(p *slide.Predictor, d *slide.Delta) {
			publish(p)
			if err := hub.Publish(p.Raw(), d.Raw()); err != nil {
				log.Printf("replication publish failed: %v", err)
			}
		}))
	} else {
		opts = append(opts, slide.WithSnapshots(refresh, publish))
	}
	trainer, err := slide.NewTrainer(m, src, opts...)
	if err != nil {
		log.Printf("background training unavailable: %v", err)
		return
	}
	report, err := trainer.Run(ctx)
	if err != nil {
		log.Printf("background training stopped: %v", err)
		return
	}
	log.Printf("background training %s after %d steps", report.Reason, report.Steps)
}
