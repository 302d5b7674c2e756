package serving

import (
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

func (g *gateStub) Predict(indices []int32, values []float32, k int) []int32 {
	return make([]int32, k)
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
