package serving

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// gateStub is a Predictor whose exact path blocks until released, so tests
// build queue pressure deterministically. The sampled path works without a
// release — the degraded tier must make progress while the exact tier is
// saturated.
type gateStub struct {
	version uint64
	entered chan struct{}
	release chan struct{}
}

func newGateStub(version uint64) *gateStub {
	return &gateStub{version: version, entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateStub) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	g.entered <- struct{}{}
	<-g.release
	out := make([][]int32, len(entries))
	for i, e := range entries {
		out[i] = make([]int32, e.K)
	}
	return out, nil
}

func (g *gateStub) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	return []int32{int32(k), -1}, nil
}

func (g *gateStub) Sampled() bool    { return true }
func (g *gateStub) Version() uint64  { return g.version }
func (g *gateStub) Steps() int64     { return 0 }
func (g *gateStub) NumLabels() int   { return 100 }
func (g *gateStub) NumFeatures() int { return 100 }

// batchCfg is the deterministic one-at-a-time pipeline shape the fault
// tests share: single worker, no coalescing, explicit queue bound.
func batchCfg(queueCap int) Config {
	return Config{MaxBatch: 1, Workers: 1, QueueCap: queueCap}
}

// postResult is one asynchronous /predict outcome.
type postResult struct {
	status int
	resp   predictResponse
}

func postAsync(t *testing.T, ts *httptest.Server, body predictRequest) chan postResult {
	t.Helper()
	ch := make(chan postResult, 1)
	go func() {
		resp, raw := postJSON(t, ts, "/predict", body)
		out := postResult{status: resp.StatusCode}
		_ = json.Unmarshal(raw, &out.resp)
		ch <- out
	}()
	return ch
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func getPath(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestPredictDeadline504: a request whose deadline_ms budget lapses while it
// waits behind a slow batch is answered 504 Gateway Timeout, not served late
// and not counted as a server error.
func TestPredictDeadline504(t *testing.T) {
	stub := newGateStub(3)
	srv, ts := testServer(t, stub, ServerConfig{DefaultK: 5, Batch: batchCfg(8)})

	req := predictRequest{Indices: []int32{1, 2}, K: kp(3)}
	a := postAsync(t, ts, req)
	<-stub.entered // the only worker is now stuck serving A

	req.DeadlineMS = 30
	b := postAsync(t, ts, req)
	waitUntil(t, "B queued", func() bool { return srv.batcher.Stats().Admitted == 2 })

	time.Sleep(60 * time.Millisecond) // let B's budget lapse while queued
	stub.release <- struct{}{}

	if ra := <-a; ra.status != http.StatusOK {
		t.Fatalf("A status %d", ra.status)
	}
	if rb := <-b; rb.status != http.StatusGatewayTimeout {
		t.Fatalf("B status %d, want 504", rb.status)
	}
	if st := srv.batcher.Stats(); st.Deadlined != 1 {
		t.Fatalf("stats %+v, want 1 deadlined", st)
	}
}

// TestDefaultDeadline504: -default-deadline applies the same budget to
// requests that carry no deadline_ms of their own.
func TestDefaultDeadline504(t *testing.T) {
	stub := newGateStub(3)
	srv, ts := testServer(t, stub, ServerConfig{
		DefaultK:        5,
		Batch:           batchCfg(8),
		DefaultDeadline: 30 * time.Millisecond,
	})

	req := predictRequest{Indices: []int32{1, 2}, K: kp(3)}
	a := postAsync(t, ts, req)
	<-stub.entered
	b := postAsync(t, ts, req) // no wire deadline: the server default applies
	waitUntil(t, "B queued", func() bool { return srv.batcher.Stats().Admitted == 2 })

	time.Sleep(60 * time.Millisecond)
	stub.release <- struct{}{}

	if ra := <-a; ra.status != http.StatusOK {
		t.Fatalf("A status %d", ra.status)
	}
	if rb := <-b; rb.status != http.StatusGatewayTimeout {
		t.Fatalf("B status %d, want 504 from the default deadline", rb.status)
	}
}

// TestPredictDegraded: under queue pressure with a degradation policy,
// responses come back 200 with "degraded":true and the correct snapshot
// version — served, not shed — and recovery restores exact
func TestPredictDegraded(t *testing.T) {
	stub := newGateStub(9)
	cfg := batchCfg(4)
	cfg.Degrade = DegradePolicy{HighWater: 0.5, LowWater: 0.25, After: 1}
	srv, ts := testServer(t, stub, ServerConfig{DefaultK: 5, Batch: cfg})

	req := predictRequest{Indices: []int32{1, 2}, K: kp(3)}
	a := postAsync(t, ts, req)
	<-stub.entered
	// Enqueue B..E one at a time so queue order (and thus flush order) is
	// deterministic — concurrent posts could land in any order.
	queued := func(n int) func() bool {
		return func() bool { return srv.batcher.Stats().QueueDepth == n }
	}
	b := postAsync(t, ts, req)
	waitUntil(t, "B queued", queued(1))
	c := postAsync(t, ts, req)
	waitUntil(t, "C queued", queued(2))
	d := postAsync(t, ts, req)
	waitUntil(t, "D queued", queued(3))
	e := postAsync(t, ts, req)
	waitUntil(t, "E queued", queued(4))

	stub.release <- struct{}{} // A completes exact
	if ra := <-a; ra.status != http.StatusOK || ra.resp.Degraded {
		t.Fatalf("A = %+v, want exact 200", ra)
	}
	// B and C flush above the high-water mark (queue depths 3 and 2 of 4):
	// degraded, correct version, served through the sampled path without a
	// release.
	for name, ch := range map[string]chan postResult{"B": b, "C": c} {
		r := <-ch
		if r.status != http.StatusOK || !r.resp.Degraded {
			t.Fatalf("%s = %+v, want degraded 200", name, r)
		}
		if r.resp.Version != 9 {
			t.Fatalf("%s version %d, want 9", name, r.resp.Version)
		}
	}
	// D flushes at the low-water mark (depth 1): back to exact, as is E.
	for _, ch := range []chan postResult{d, e} {
		<-stub.entered
		stub.release <- struct{}{}
		if r := <-ch; r.status != http.StatusOK || r.resp.Degraded {
			t.Fatalf("post-recovery = %+v, want exact 200", r)
		}
	}
}

// TestHealthzReadyQueue: readiness reflects admission-queue saturation —
// 503 while the queue is full, 200 again once it drains. Liveness stays 200
// throughout (a saturated server must not be restarted).
func TestHealthzReadyQueue(t *testing.T) {
	stub := newGateStub(1)
	srv, ts := testServer(t, stub, ServerConfig{DefaultK: 5, Batch: batchCfg(2)})

	req := predictRequest{Indices: []int32{1, 2}, K: kp(3)}
	a := postAsync(t, ts, req)
	<-stub.entered
	b := postAsync(t, ts, req)
	waitUntil(t, "B queued", func() bool { return srv.batcher.Stats().QueueDepth == 1 })
	c := postAsync(t, ts, req)
	waitUntil(t, "queue full", func() bool { return srv.batcher.Stats().QueueDepth == 2 })

	status, body := getPath(t, ts, "/healthz/ready")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "queue full") {
		t.Fatalf("ready = %d %q, want 503 naming the queue", status, body)
	}
	if status, _ := getPath(t, ts, "/healthz/live"); status != http.StatusOK {
		t.Fatalf("live = %d under saturation, want 200", status)
	}

	// Drain: each release serves one request; B and C re-enter the gate.
	stub.release <- struct{}{}
	if r := <-a; r.status != http.StatusOK {
		t.Fatalf("A status %d", r.status)
	}
	<-stub.entered
	stub.release <- struct{}{}
	if r := <-b; r.status != http.StatusOK {
		t.Fatalf("B status %d", r.status)
	}
	<-stub.entered
	stub.release <- struct{}{}
	if r := <-c; r.status != http.StatusOK {
		t.Fatalf("C status %d", r.status)
	}
	if status, _ := getPath(t, ts, "/healthz/ready"); status != http.StatusOK {
		t.Fatalf("ready = %d after drain, want 200", status)
	}
}

// TestHealthzReadyStale: readiness reflects snapshot staleness under
// -max-snapshot-stale, and a fresh Publish restores it.
func TestHealthzReadyStale(t *testing.T) {
	stub := newGateStub(1)
	srv, ts := testServer(t, stub, ServerConfig{
		DefaultK: 5, Direct: true, MaxStale: 50 * time.Millisecond,
	})

	if status, _ := getPath(t, ts, "/healthz/ready"); status != http.StatusOK {
		t.Fatalf("fresh snapshot ready = %d, want 200", status)
	}
	time.Sleep(80 * time.Millisecond)
	status, body := getPath(t, ts, "/healthz/ready")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "stale") {
		t.Fatalf("stale ready = %d %q, want 503 naming staleness", status, body)
	}
	srv.Publish(newGateStub(2))
	if status, _ := getPath(t, ts, "/healthz/ready"); status != http.StatusOK {
		t.Fatalf("republished ready = %d, want 200", status)
	}
}

// slowStub is a stubPredictor whose every exact flush takes delay, so a
// flush sets the batcher's service estimate to about delay.
type slowStub struct {
	*stubPredictor
	delay time.Duration
}

func (s slowStub) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	time.Sleep(s.delay)
	return s.stubPredictor.PredictEntries(entries)
}

// TestPredictBatchDeadlineCountsEveryEntry: /predict/batch gets /predict's
// deadline handling, entry for entry. A budget under the service estimate
// is refused before admission with a 504 on both endpoints, each refused
// entry counted deadlined; and when a queued batch's deadline passes, every
// one of its entries counts as deadlined, none as canceled.
func TestPredictBatchDeadlineCountsEveryEntry(t *testing.T) {
	srv, ts := testServer(t, slowStub{&stubPredictor{version: 1}, 40 * time.Millisecond},
		ServerConfig{DefaultK: 5, Batch: batchCfg(8)})
	sample := predictRequest{Indices: []int32{1, 2}, K: kp(3)}
	if resp, body := postJSON(t, ts, "/predict", sample); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow warm-up flush: status %d: %s", resp.StatusCode, body)
	}
	const samples = 3
	batch := batchRequest{Samples: []predictRequest{sample, sample, sample}, DeadlineMS: 5}
	one := sample
	one.DeadlineMS = 5
	for _, tc := range []struct {
		path    string
		body    any
		entries uint64
	}{{"/predict", one, 1}, {"/predict/batch", batch, samples}} {
		before := srv.batcher.Stats()
		resp, body := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s under the service estimate: status %d (%s), want 504", tc.path, resp.StatusCode, body)
		}
		st := srv.batcher.Stats()
		if st.Admitted != before.Admitted || st.Deadlined != before.Deadlined+tc.entries {
			t.Fatalf("%s: admitted %d→%d, deadlined %d→%d; want admitted unchanged, deadlined +%d",
				tc.path, before.Admitted, st.Admitted, before.Deadlined, st.Deadlined, tc.entries)
		}
	}

	// A queued batch whose deadline passes behind a stuck flush.
	stub := newGateStub(2)
	srv, ts = testServer(t, stub, ServerConfig{DefaultK: 5, Batch: batchCfg(8)})
	a := postAsync(t, ts, sample)
	<-stub.entered // the only worker is now stuck serving A
	batch.DeadlineMS = 30
	if resp, body := postJSON(t, ts, "/predict/batch", batch); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued batch past its deadline: status %d (%s), want 504", resp.StatusCode, body)
	}
	stub.release <- struct{}{}
	if ra := <-a; ra.status != http.StatusOK {
		t.Fatalf("A status %d", ra.status)
	}
	if st := srv.batcher.Stats(); st.Deadlined != samples || st.Canceled != 0 {
		t.Fatalf("stats %+v, want all %d entries deadlined and none canceled", st, samples)
	}
}

// TestShutdownFlipsReadyAndFinishesInFlight: once Shutdown starts draining,
// /healthz/ready answers 503 naming the drain, while a request already in
// flight still completes and Shutdown then returns cleanly.
func TestShutdownFlipsReadyAndFinishesInFlight(t *testing.T) {
	stub := newGateStub(1)
	srv, ts := testServer(t, stub, ServerConfig{DefaultK: 5, Batch: batchCfg(8)})
	ready := func() (int, string) {
		rec := httptest.NewRecorder()
		srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz/ready", nil))
		return rec.Code, rec.Body.String()
	}
	if status, body := ready(); status != http.StatusOK {
		t.Fatalf("ready before shutdown = %d %q, want 200", status, body)
	}

	a := postAsync(t, ts, predictRequest{Indices: []int32{1, 2}, K: kp(3)})
	<-stub.entered // A is in flight inside the backend
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx, ts.Config)
	}()
	waitUntil(t, "ready to report draining", func() bool {
		status, body := ready()
		return status == http.StatusServiceUnavailable && strings.Contains(body, "draining: shutdown in progress")
	})

	stub.release <- struct{}{}
	if r := <-a; r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain, want 200", r.status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
