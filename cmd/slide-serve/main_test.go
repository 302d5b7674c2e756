package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/replicate"
	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

// testHub serves a full-precision replication stream; with publish set it
// holds one base snapshot of a small untrained model. requests counts the
// stream fetches it has answered.
func testHub(t *testing.T, publish bool) (srv *httptest.Server, hub *replicate.Hub, requests *atomic.Int64) {
	t.Helper()
	hub = replicate.NewHub()
	if publish {
		publishBase(t, hub)
	}
	mux := http.NewServeMux()
	hub.Register(mux)
	requests = new(atomic.Int64)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, hub, requests
}

func publishBase(t *testing.T, hub *replicate.Hub) {
	t.Helper()
	m, err := slide.New(60, 16, 20, slide.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Publish(m.Snapshot().Raw(), nil); err != nil {
		t.Fatal(err)
	}
}

// get answers path from h and decodes the JSON body.
func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: %v (body %q)", path, err, rec.Body.String())
	}
	return rec.Code, body
}

// TestFollowServesAndReportsTheStream: a follower builds its server from the
// first synced base, reports ready with the replication counters in /stats,
// and once the hub goes away leaves rotation with a reason that names the
// failure.
func TestFollowServesAndReportsTheStream(t *testing.T) {
	hub, _, _ := testHub(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, stop, err := follow(ctx, serving.ServerConfig{}, options{
		follow: hub.URL, pollTimeout: 30 * time.Second, syncTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("follow returned no server after the first sync")
	}
	defer srv.Close()
	defer stop()
	h := srv.Mux()

	if code, body := get(t, h, "/healthz/ready"); code != http.StatusOK {
		t.Fatalf("/healthz/ready after the first sync: %d %v", code, body)
	}
	_, stats := get(t, h, "/stats")
	for _, key := range []string{"replica_version", "trainer_version", "deltas_applied",
		"resyncs", "corrupt", "quarantined", "resync_backoff_ms"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats lacks %q: %v", key, stats)
		}
	}
	if v := stats["replica_version"]; v != float64(1) {
		t.Errorf("replica_version = %v, want 1", v)
	}

	// Refuse new connections before cutting the open long-poll, so no
	// retried poll parks a handler that Close would wait out.
	hub.Listener.Close()
	hub.CloseClientConnections()
	hub.Close()
	const prefix = "replication stream disconnected: "
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, h, "/healthz/ready")
		reasons, _ := body["reasons"].([]any)
		for _, r := range reasons {
			if s, _ := r.(string); code == http.StatusServiceUnavailable &&
				strings.HasPrefix(s, prefix) && strings.Contains(s, hub.URL) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz/ready after the hub closed: %d %v, want 503 with %q and the failed fetch", code, body, prefix)
		}
		t.Logf("%d %v", code, body)
		time.Sleep(200 * time.Millisecond)
	}
}

// TestFollowSyncTimeoutNamesTheCause: an int8-pinned follower of an f32 hub
// gives up after -sync-timeout with an error naming the refused width.
func TestFollowSyncTimeoutNamesTheCause(t *testing.T) {
	hub, _, _ := testHub(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := follow(ctx, serving.ServerConfig{}, options{
		follow: hub.URL, qbits: 8, pollTimeout: time.Second, syncTimeout: 3 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "within 3s") || !strings.Contains(err.Error(), "requires int8") {
		t.Fatalf("follow = %v, want a sync timeout naming the int8 requirement", err)
	}
}

// TestFollowSyncTimeoutStopsTheClient: a follower that gives up stops
// fetching, so a base that lands afterwards builds no server nobody closes.
func TestFollowSyncTimeoutStopsTheClient(t *testing.T) {
	srv, hub, requests := testHub(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := follow(ctx, serving.ServerConfig{}, options{
		follow: srv.URL, pollTimeout: time.Second, syncTimeout: 600 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "base fetch: 503") {
		t.Fatalf("follow = %v, want a sync timeout naming the refused base", err)
	}
	n := requests.Load()
	publishBase(t, hub)
	// A running client would retry within its next backoff (about 1s here).
	time.Sleep(2 * time.Second)
	if got := requests.Load(); got != n {
		t.Fatalf("the hub answered %d fetches after follow gave up, want 0", got-n)
	}
}

// TestCheckFlags: exactly one snapshot source, no flag set that the source
// ignores, and a follower never re-publishes.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    options
		set  []string // flags given on the command line
		want string   // "" = accepted
	}{
		{"model", options{modelPath: "m.slide"}, []string{"model", "k", "chaos"}, ""},
		{"demo replicating", options{demo: true, replicate: true, qbits: 8}, []string{"demo", "seed", "refresh", "shards", "demo-scale"}, ""},
		{"follow", options{follow: "http://hub", qbits: 8}, []string{"follow", "seed", "max-version-lag", "poll-timeout", "sync-timeout"}, ""},
		{"no source", options{}, nil, "exactly one"},
		{"model and demo", options{modelPath: "m.slide", demo: true}, nil, "exactly one"},
		{"follow and model", options{follow: "http://hub", modelPath: "m.slide"}, nil, "exactly one"},
		{"follow and demo", options{follow: "http://hub", demo: true}, nil, "exactly one"},
		{"follow and replicate", options{follow: "http://hub", replicate: true}, nil, "-replicate"},
		{"follow and refresh", options{follow: "http://hub"}, []string{"refresh"}, "-refresh does not apply to -follow"},
		{"demo and sync-timeout", options{demo: true}, []string{"sync-timeout"}, "-sync-timeout does not apply to -demo"},
		{"model and seed", options{modelPath: "m.slide"}, []string{"seed"}, "-seed does not apply to -model (only to -demo and -follow)"},
		{"int4", options{demo: true, qbits: 4}, nil, "-quantize must be 0 or 8"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkFlags(tc.o, set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: checkFlags = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
