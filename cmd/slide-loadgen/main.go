// Command slide-loadgen drives deterministic closed-loop load against a
// slide-serve instance: a fixed seed and fixed request set (drawn from the
// same synthetic workload generator the demo server uses), a fixed number
// of closed-loop clients each with one request in flight, and a report of
// throughput, latency quantiles, and error counts. Because the request set
// is deterministic, two runs against two server configurations (e.g.
// micro-batched vs -no-batch) are exercised identically and their responses
// can be compared bit for bit.
//
// Typical A/B:
//
//	slide-serve -demo -demo-scale 1e-6 -seed 42 -addr :8080 &
//	slide-loadgen -addr http://127.0.0.1:8080 -scale 1e-6 -seed 42 -clients 64 -n 5000
//
// The -min-mean-batch flag turns the run into a smoke check: after the
// load completes, the server's /stats endpoint must report at least that
// mean coalesced batch size (and zero request errors), or the command
// exits non-zero — CI uses this to prove the micro-batcher actually
// batches under concurrent load.
//
// Connection failures (refused/reset, e.g. a replica restarting mid-run)
// are retried for up to ~10s and reported in a separate reconnects bucket
// instead of failing the run — rolling restarts are not outages.
//
// Cluster mode (-targets host1:8081,host2:8082) spreads the same request
// set round-robin across a fleet of replicas (slide-serve -follow) instead of a
// single server: the report gains per-target sections, the snapshot
// versions observed in responses, and the cluster-wide version skew; each
// target's /stats replication counters (replica_version, trainer_version,
// deltas_applied, resyncs) are echoed when present. The -max-skew flag
// fails the run when the observed version spread exceeds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

func main() {
	var (
		addr         = flag.String("addr", "http://127.0.0.1:8080", "base URL of the slide-serve instance")
		clients      = flag.Int("clients", 64, "closed-loop clients (one request in flight each)")
		n            = flag.Int("n", 1000, "total requests")
		k            = flag.Int("k", 5, "top-k per request")
		mixedK       = flag.Bool("mixed-k", false, "vary k per request (1..k) to exercise per-request k in shared batches")
		seed         = flag.Uint64("seed", 42, "request-set seed (match the server's -seed)")
		scale        = flag.Float64("scale", 1e-6, "request-set dataset scale (match the server's -demo-scale)")
		timeout      = flag.Duration("timeout", 5*time.Minute, "overall run timeout")
		deadline     = flag.Duration("deadline", 0, "per-request service deadline sent as deadline_ms; server 504s count as deadline sheds, not errors (0 = none)")
		minMeanBatch = flag.Float64("min-mean-batch", 0, "fail unless server /stats mean_batch >= this after the run (0 = skip)")
		jsonOut      = flag.Bool("json", false, "emit the report as JSON")
		targets      = flag.String("targets", "", "comma-separated replica base URLs for cluster mode (overrides -addr)")
		maxSkew      = flag.Uint64("max-skew", 0, "cluster mode: fail when the observed version spread exceeds this (0 = report only)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("slide-loadgen: ")
	entries, err := serving.BuildLoad(serving.LoadSpec{
		Scale: *scale, Seed: *seed, Requests: *n, K: *k, MixedK: *mixedK,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	opts := serving.LoadOptions{Deadline: *deadline}

	if *targets != "" {
		urls := strings.Split(*targets, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
			if !strings.Contains(urls[i], "://") {
				urls[i] = "http://" + urls[i]
			}
		}
		err = runCluster(ctx, urls, entries, *clients, opts, *maxSkew, *jsonOut)
	} else {
		err = run(ctx, *addr, entries, *clients, opts, *minMeanBatch, *jsonOut)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, addr string, entries []slide.BatchEntry, clients int, opts serving.LoadOptions, minMeanBatch float64, jsonOut bool) error {
	report := serving.RunLoadOpts(ctx, addr, nil, entries, clients, opts)

	meanBatch := -1.0
	if minMeanBatch > 0 {
		stats, err := fetchStats(ctx, addr)
		if err != nil {
			return fmt.Errorf("fetching /stats: %w", err)
		}
		meanBatch, _ = stats["mean_batch"].(float64)
	}

	if jsonOut {
		out := map[string]any{
			"requests":     report.Requests,
			"errors":       report.Errors,
			"retried_429":  report.Retried429,
			"reconnects":   report.Reconnects,
			"degraded":     report.Degraded,
			"deadline_504": report.Deadline504,
			"duration_ms":  float64(report.Duration.Microseconds()) / 1000,
			"qps":          report.QPS,
			"p50_ms":       float64(report.P50.Microseconds()) / 1000,
			"p99_ms":       float64(report.P99.Microseconds()) / 1000,
		}
		if meanBatch >= 0 {
			out["server_mean_batch"] = meanBatch
		}
		if report.FirstError != "" {
			out["first_error"] = report.FirstError
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		log.Printf("%d requests, %d clients: %.0f qps, p50 %v, p99 %v, %d errors, %d retried (429), %d reconnects, %d degraded, %d deadline-shed (504)",
			report.Requests, clients, report.QPS, report.P50, report.P99, report.Errors,
			report.Retried429, report.Reconnects, report.Degraded, report.Deadline504)
		if meanBatch >= 0 {
			log.Printf("server mean batch size: %.2f", meanBatch)
		}
	}

	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %s)", report.Errors, report.Requests, report.FirstError)
	}
	if minMeanBatch > 0 && meanBatch < minMeanBatch {
		return fmt.Errorf("server mean batch size %.2f below required %.2f — micro-batching is not coalescing", meanBatch, minMeanBatch)
	}
	return nil
}

// runCluster drives the request set round-robin across the replica fleet
// and reports per-target outcomes plus the observed version skew.
func runCluster(ctx context.Context, targets []string, entries []slide.BatchEntry, clients int, opts serving.LoadOptions, maxSkew uint64, jsonOut bool) error {
	report := serving.RunLoadCluster(ctx, targets, nil, entries, clients, opts)

	targetsOut := make([]map[string]any, len(report.Targets))
	for i, tr := range report.Targets {
		t := map[string]any{
			"url":         tr.URL,
			"requests":    tr.Report.Requests,
			"errors":      tr.Report.Errors,
			"degraded":    tr.Report.Degraded,
			"p50_ms":      float64(tr.Report.P50.Microseconds()) / 1000,
			"p99_ms":      float64(tr.Report.P99.Microseconds()) / 1000,
			"min_version": tr.Report.MinVersion,
			"max_version": tr.Report.MaxVersion,
		}
		// A target whose /stats has no replica_version is not a replica.
		if stats, err := fetchStats(ctx, tr.URL); err == nil && stats["replica_version"] != nil {
			repl := map[string]any{}
			for _, key := range []string{"replica_version", "trainer_version", "deltas_applied", "resyncs", "corrupt"} {
				if v, ok := stats[key]; ok {
					repl[key] = v
				}
			}
			t["replica_stats"] = repl
		}
		targetsOut[i] = t
	}

	if jsonOut {
		out := map[string]any{
			"targets":      targetsOut,
			"requests":     report.Requests,
			"errors":       report.Errors,
			"retried_429":  report.Retried429,
			"reconnects":   report.Reconnects,
			"degraded":     report.Degraded,
			"deadline_504": report.Deadline504,
			"duration_ms":  float64(report.Duration.Microseconds()) / 1000,
			"qps":          report.QPS,
			"min_version":  report.MinVersion,
			"max_version":  report.MaxVersion,
			"version_skew": report.Skew(),
		}
		if report.FirstError != "" {
			out["first_error"] = report.FirstError
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		log.Printf("cluster of %d: %d requests, %.0f qps, %d errors, %d degraded, versions [%d, %d] (skew %d)",
			len(targets), report.Requests, report.QPS, report.Errors, report.Degraded,
			report.MinVersion, report.MaxVersion, report.Skew())
		for _, t := range targetsOut {
			line := fmt.Sprintf("  %s: %d req, %d err, versions [%v, %v]",
				t["url"], t["requests"], t["errors"], t["min_version"], t["max_version"])
			if repl, ok := t["replica_stats"].(map[string]any); ok {
				line += fmt.Sprintf(", replica v%v of trainer v%v (%v deltas, %v resyncs)",
					repl["replica_version"], repl["trainer_version"],
					repl["deltas_applied"], repl["resyncs"])
			}
			log.Print(line)
		}
	}

	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %s)", report.Errors, report.Requests, report.FirstError)
	}
	if maxSkew > 0 && report.Skew() > maxSkew {
		return fmt.Errorf("version skew %d exceeds -max-skew %d", report.Skew(), maxSkew)
	}
	return nil
}

// fetchStats decodes the body of a server's /stats endpoint.
func fetchStats(ctx context.Context, addr string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats returned %d", resp.StatusCode)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	return stats, err
}
