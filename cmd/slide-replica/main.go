// Command slide-replica is a serving replica that follows a trainer's
// snapshot replication stream (slide-serve -replicate). It bootstraps
// from a full base snapshot, long-polls the sparse delta stream — each
// delta moves only the rows SLIDE's sampled training touched since the
// previous version — applies deltas copy-on-write, and hot-swaps versions
// into the same micro-batched serving pipeline slide-serve uses, so a
// replica's responses are byte-identical to the trainer's at the same
// version. Any gap, CRC failure, or config mismatch on the stream never
// tears the served model: the replica keeps answering on its current
// version and re-syncs from a fresh base automatically.
//
//	slide-replica -trainer http://trainer:8080 -addr :8081
//
// Endpoints are slide-serve's (POST /predict, /predict/batch, GET
// /healthz{,/live,/ready}, /stats) with replication extras: /healthz/ready
// answers 503 when the stream is disconnected or the replica has fallen
// more than -max-version-lag versions behind the trainer, and /stats
// additionally reports replica_version, trainer_version, deltas_applied,
// resyncs, corrupt, quarantined (deltas/bases refused for non-finite
// weights), and resync_backoff_ms (the current capped-exponential re-sync
// pause; -seed makes its jitter deterministic).
//
// On SIGTERM/SIGINT the replica drains gracefully: readiness flips to 503
// so load balancers steer away, in-flight batches flush, then the process
// exits 0. A second signal kills it immediately.
//
// The -chaos flag arms the same deterministic fault injector the trainer
// binaries use — e.g. 'replicate.recv@3=err' makes the third stream fetch
// fail — for self-healing drills.
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
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

func main() {
	var (
		trainerURL = flag.String("trainer", "", "trainer base URL to replicate from (required), e.g. http://host:8080")
		addr       = flag.String("addr", ":8081", "listen address")
		k          = flag.Int("k", 5, "default top-k when a request omits k")
		noBatch    = flag.Bool("no-batch", false, "bypass the micro-batcher: one forward pass per request")
		maxBatch   = flag.Int("max-batch", 32, "micro-batcher: flush when this many requests coalesce")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "micro-batcher: flush a partial batch after this wait")
		queueCap   = flag.Int("queue-cap", 0, "admission queue bound; overflow sheds with 429 (0 = 8×max-batch)")

		maxLag      = flag.Int64("max-version-lag", 0, "versions behind the trainer before /healthz/ready reports unready (0 = lag never gates readiness)")
		pollTimeout = flag.Duration("poll-timeout", 30*time.Second, "delta long-poll budget per round trip")
		syncWait    = flag.Duration("sync-timeout", 2*time.Minute, "how long to wait for the initial base sync before giving up")
		seed        = flag.Uint64("seed", 1, "seed for the deterministic re-sync backoff jitter (desynchronizes a fleet reproducibly)")

		defaultDeadline = flag.Duration("default-deadline", 0, "service deadline for requests without deadline_ms; misses answer 504 (0 = none)")
		chaos           = flag.String("chaos", "", "fault-injection scenario, e.g. 'replicate.recv@3=err' (self-healing drills)")
		chaosSeed       = flag.Uint64("chaos-seed", 1, "seed for probabilistic chaos rules (p0.x)")
		quantize        = flag.Int("quantize", 0, "require an int8-quantized stream: 8; refuses f32 bases so a replica sized for packed snapshots never inflates (0 = accept whatever the trainer streams)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("slide-replica: ")
	if *trainerURL == "" {
		log.Fatal(errors.New("-trainer is required"))
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
		Direct:   *noBatch,
		Batch: serving.Config{
			MaxBatch: *maxBatch,
			MaxWait:  *maxWait,
			QueueCap: *queueCap,
		},
		DefaultDeadline: *defaultDeadline,
	}
	if *quantize != 0 && *quantize != 8 {
		log.Fatalf("-quantize must be 0 or 8 (got %d)", *quantize)
	}
	if err := run(*addr, *trainerURL, cfg, *maxLag, *pollTimeout, *syncWait, *seed, *quantize); err != nil {
		log.Fatal(err)
	}
}

func run(addr, trainerURL string, cfg serving.ServerConfig, maxLag int64, pollTimeout, syncWait time.Duration, seed uint64, quantize int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &replicate.Client{
		BaseURL:          trainerURL,
		PollTimeout:      pollTimeout,
		JitterSeed:       seed,
		RequireQuantized: quantize,
		// A long-poll must be able to run its course before the transport
		// gives up.
		HTTP: &http.Client{Timeout: pollTimeout + 15*time.Second},
	}

	// Graceful drain: flipped on the first SIGTERM/SIGINT so readiness
	// reports 503 while in-flight batches flush.
	var draining atomic.Bool

	// The serving pipeline needs an initial predictor, which only the first
	// base sync can provide; until then swaps park under the mutex.
	var (
		mu    sync.Mutex
		srv   *serving.Server
		first = make(chan struct{})
		once  sync.Once
	)
	client.OnSwap = func(p *network.Predictor, version uint64) {
		sp := serving.Predictor(replicate.NewServed(p, version))
		mu.Lock()
		defer mu.Unlock()
		if srv == nil {
			srv = serving.NewServer(sp, withReplicaHooks(cfg, client, maxLag, &draining))
			once.Do(func() { close(first) })
			return
		}
		srv.Publish(sp)
	}

	runErr := make(chan error, 1)
	go func() { runErr <- client.Run(ctx) }()

	log.Printf("syncing base snapshot from %s", trainerURL)
	select {
	case <-first:
	case <-time.After(syncWait):
		stop()
		<-runErr
		return fmt.Errorf("no base snapshot from %s within %s", trainerURL, syncWait)
	case <-ctx.Done():
		return <-runErr
	}
	mu.Lock()
	s := srv
	mu.Unlock()
	defer s.Close()
	log.Printf("serving v%d (trainer step %d)", client.Stats.Version.Load(), client.Stats.TrainerVersion.Load())

	httpSrv := &http.Server{Addr: addr, Handler: s.Mux()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s, replicating from %s", addr, trainerURL)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM is immediate
	draining.Store(true)
	log.Printf("draining: admission stopped, flushing in-flight batches (applied %d deltas, %d resyncs)",
		client.Stats.DeltasApplied.Load(), client.Stats.Resyncs.Load())
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx) // close listeners, wait for handlers
	s.Close()                        // drain the batcher queue, join workers
	log.Printf("drain complete")
	return err
}

// withReplicaHooks extends the serving config with replication-aware
// readiness and stats.
func withReplicaHooks(cfg serving.ServerConfig, client *replicate.Client, maxLag int64, draining *atomic.Bool) serving.ServerConfig {
	cfg.ReadyReasons = func() []string {
		var reasons []string
		if draining.Load() {
			reasons = append(reasons, "draining: shutdown in progress")
		}
		if client.Stats.Connected.Load() == 0 {
			reasons = append(reasons, "replication stream disconnected")
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
