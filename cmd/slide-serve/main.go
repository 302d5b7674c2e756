// Command slide-serve is an HTTP JSON prediction server over a SLIDE model
// — the heavy-traffic deployment scenario the snapshot API exists for.
// Concurrent /predict requests are coalesced by a dynamic micro-batcher
// into fused batch forwards on an immutable Predictor snapshot (per-request
// k is honored inside the shared batch), a bounded admission queue sheds
// overload with 429 + Retry-After, and a background trainer (demo mode) can
// keep improving the model, hot-swapping versioned snapshots without
// stalling in-flight batches.
//
// Serve a trained checkpoint:
//
//	slide-serve -model model.slide -addr :8080
//
// Or run the self-contained demo (synthetic Amazon-670K-like workload,
// online training with periodic snapshot refresh):
//
//	slide-serve -demo -demo-scale 1e-6 -refresh 20
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
// /predict is a /predict/batch of one sample. A request on either endpoint
// carrying deadline_ms (or running under -default-deadline) is answered 504
// when it cannot be served within its budget. Under sustained
// queue pressure with -degrade-high set, the server downshifts to sampled
// (LSH) prediction — responses are marked "degraded":true — before it sheds.
//
// The -no-batch flag serves every request with its own forward pass (the
// pre-batching behavior) — the A/B baseline for cmd/slide-loadgen.
//
// With -replicate the server additionally exposes the snapshot replication
// endpoints (GET /replicate/base, /replicate/deltas, /replicate/status):
// in demo mode the background trainer publishes sparse deltas — only the
// rows SLIDE's sampled training touched since the last refresh — and any
// number of cmd/slide-replica processes can follow the stream and serve
// the same versions.
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
	"syscall"
	"time"

	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelPath = flag.String("model", "", "checkpoint to serve (written by Model.SaveFile)")
		k         = flag.Int("k", 5, "default top-k when a request omits k")
		demo      = flag.Bool("demo", false, "train a synthetic model instead of loading a checkpoint")
		demoScale = flag.Float64("demo-scale", 1e-6, "demo workload scale (fraction of Amazon-670K dims)")
		refresh   = flag.Int("refresh", 20, "demo: batches between snapshot refreshes (0 = freeze after warmup)")
		shards    = flag.Int("shards", 0, "demo: output-layer shards for the deterministic sharded trainer (0 = HOGWILD)")
		seed      = flag.Uint64("seed", 42, "demo RNG seed")
		noBatch   = flag.Bool("no-batch", false, "bypass the micro-batcher: one forward pass per request (A/B baseline)")
		maxBatch  = flag.Int("max-batch", 32, "micro-batcher: flush when this many requests coalesce")
		maxWait   = flag.Duration("max-wait", 2*time.Millisecond, "micro-batcher: flush a partial batch after this wait")
		queueCap  = flag.Int("queue-cap", 0, "admission queue bound; overflow sheds with 429 (0 = 8×max-batch)")
		replFlag  = flag.Bool("replicate", false, "expose /replicate/* so slide-replica processes can follow this server's snapshots")
		quantize  = flag.Int("quantize", 0, "serve int8-quantized snapshots: 8; with -replicate the stream ships packed bases and deltas (0 = full precision)")

		defaultDeadline = flag.Duration("default-deadline", 0, "service deadline for requests without deadline_ms; misses answer 504 (0 = none)")
		degradeHigh     = flag.Float64("degrade-high", 0, "queue occupancy fraction that engages degraded (sampled) serving (0 = disabled)")
		degradeLow      = flag.Float64("degrade-low", 0, "queue occupancy fraction that disengages degraded serving (0 = half of -degrade-high)")
		degradeAfter    = flag.Int("degrade-after", 0, "consecutive flush observations before switching modes (0 = default 3)")
		maxStale        = flag.Duration("max-snapshot-stale", 0, "snapshot age beyond which /healthz/ready reports unready (0 = never)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("slide-serve: ")
	log.Printf("kernels: %s active (host supports: %v)", slide.KernelInfo(), slide.AvailableKernelModes())

	cfg := serving.ServerConfig{
		DefaultK: *k,
		Direct:   *noBatch,
		Batch: serving.Config{
			MaxBatch: *maxBatch,
			MaxWait:  *maxWait,
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
	if *quantize != 0 && *quantize != 8 {
		log.Fatalf("-quantize must be 0 or 8 (got %d)", *quantize)
	}
	if err := run(*addr, *modelPath, cfg, *demo, *demoScale, *refresh, *shards, *seed, *replFlag, *quantize); err != nil {
		log.Fatal(err)
	}
}

func run(addr, modelPath string, cfg serving.ServerConfig, demo bool, demoScale float64, refresh, shards int, seed uint64, replicated bool, qbits int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var hub *replicate.Hub
	if replicated {
		hub = replicate.NewHub()
		if qbits != 0 {
			if err := hub.SetQuantize(qbits); err != nil {
				return err
			}
		}
	}

	// servable renders a training snapshot at the serving precision:
	// quantized when -quantize is set, the snapshot itself otherwise. The
	// hub always receives the full-precision snapshot (p.Raw()) — the wire
	// layer quantizes at encode time, keeping delta publish O(touched rows).
	servable := func(p *slide.Predictor) (*slide.Predictor, error) {
		if qbits == 0 {
			return p, nil
		}
		return p.Quantize(qbits)
	}

	var (
		srv     *serving.Server
		trainer func(ctx context.Context) // nil when serving a frozen checkpoint
	)
	switch {
	case demo:
		m, train, err := demoModel(demoScale, shards, seed)
		if err != nil {
			return err
		}
		if hub != nil {
			// Journal from the first snapshot on, so every refresh after the
			// base publishes as a sparse delta.
			m.EnableDeltas()
		}
		p := m.Snapshot()
		sp, err := servable(p)
		if err != nil {
			return err
		}
		srv = serving.NewServer(sp, cfg)
		if hub != nil {
			if err := hub.Publish(p.Raw(), nil); err != nil {
				return err
			}
		}
		if refresh > 0 {
			trainer = func(ctx context.Context) {
				backgroundTrain(ctx, m, train, refresh, srv, hub, servable)
			}
		}
	case modelPath != "":
		m, err := slide.LoadFile(modelPath)
		if err != nil {
			return err
		}
		p := m.Snapshot()
		sp, err := servable(p)
		if err != nil {
			return err
		}
		srv = serving.NewServer(sp, cfg)
		if hub != nil {
			// Frozen checkpoint: replicas bootstrap from the one base and
			// never see a delta.
			if err := hub.Publish(p.Raw(), nil); err != nil {
				return err
			}
		}
		log.Printf("loaded %s (%d labels, step %d)", modelPath, p.NumLabels(), m.Steps())
	default:
		return errors.New("either -model or -demo is required")
	}
	defer srv.Close()

	if trainer != nil {
		go trainer(ctx)
	}

	mux := srv.Mux()
	if hub != nil {
		hub.Register(mux)
	}
	httpSrv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		mode := "micro-batched"
		if cfg.Direct {
			mode = "direct (one forward per request)"
		}
		if hub != nil {
			mode += ", replicating"
		}
		if qbits != 0 {
			mode += fmt.Sprintf(", int%d-quantized", qbits)
		}
		log.Printf("listening on %s, %s", addr, mode)
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
	err := srv.Shutdown(shutCtx, httpSrv)
	log.Printf("drain complete")
	return err
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
