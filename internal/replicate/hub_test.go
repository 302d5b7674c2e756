package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/network"
)

// ringShape reads the hub's visible version and ring under its lock,
// failing unless the ring is contiguous, ends at version, and holds every
// message at exact size.
func ringShape(t *testing.T, hub *Hub) (version, from uint64, n int) {
	t.Helper()
	hub.mu.Lock()
	defer hub.mu.Unlock()
	for i, e := range hub.ring {
		if e.to != e.from+1 || (i > 0 && e.from != hub.ring[i-1].to) {
			t.Fatalf("ring entry %d moves v%d->v%d after v%d", i, e.from, e.to, hub.ring[max(i-1, 0)].to)
		}
		if cap(e.data) != len(e.data) {
			t.Fatalf("ring entry %d holds %d bytes in a %d-byte buffer", i, len(e.data), cap(e.data))
		}
	}
	if len(hub.ring) > 0 {
		if last := hub.ring[len(hub.ring)-1].to; last != hub.version {
			t.Fatalf("ring ends at v%d, visible version is v%d", last, hub.version)
		}
		from = hub.ring[0].from
	}
	return hub.version, from, len(hub.ring)
}

// TestHubPublishOrdering: deltas published back to back, then a base,
// then more deltas. Version counts every accepted publish at once; once
// settled, the ring is contiguous from the last base; and a following
// replica swaps every version in +1 steps, never re-syncs, and lands
// bit-identical to the trainer's local snapshot.
func TestHubPublishOrdering(t *testing.T) {
	n := newTestNet(t, 41)
	src := newTrainSrc(60, 20, 21)
	hub := NewHub()
	_, c, swaps := testCluster(t, hub)
	accepted := uint64(0)
	publish := func(base bool) *network.Predictor {
		t.Helper()
		n.TrainBatch(src.batch(32))
		p, d := n.SnapshotDelta()
		if base {
			d = nil
		} else if d == nil {
			t.Fatal("expected a delta")
		}
		if err := hub.Publish(p, d); err != nil {
			t.Fatal(err)
		}
		accepted++
		if got := hub.Version(); got != accepted {
			t.Fatalf("Version() = %d after %d accepted publishes", got, accepted)
		}
		return p
	}

	publish(true)
	for i := 0; i < 5; i++ {
		publish(false)
	}
	// The base waits for the last delta's encode, then drops the ring.
	publish(true)
	baseVersion := accepted
	if v, _, ringLen := ringShape(t, hub); v != baseVersion || ringLen != 0 {
		t.Fatalf("after the base: visible v%d with %d ring entries, want v%d and none", v, ringLen, baseVersion)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	select {
	case got := <-swaps:
		if got != baseVersion {
			t.Fatalf("replica synced v%d, want the base v%d", got, baseVersion)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for the base v%d", baseVersion)
	}
	hub.mu.Lock()
	baseMsg := hub.base
	hub.mu.Unlock()
	if baseMsg == nil || cap(baseMsg) != len(baseMsg) {
		t.Fatalf("cached base: %d bytes in a %d-byte buffer", len(baseMsg), cap(baseMsg))
	}

	var local *network.Predictor
	for i := 0; i < 6; i++ {
		local = publish(false)
	}
	if err := hub.settle(); err != nil {
		t.Fatal(err)
	}
	if v, from, ringLen := ringShape(t, hub); v != accepted || from != baseVersion || ringLen != int(accepted-baseVersion) {
		t.Fatalf("settled ring: visible v%d, %d entries from v%d; want v%d, %d from v%d",
			v, ringLen, from, accepted, accepted-baseVersion, baseVersion)
	}
	for want := baseVersion + 1; want <= accepted; want++ {
		select {
		case got := <-swaps:
			if got != want {
				t.Fatalf("replica swapped v%d, want v%d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for v%d", want)
		}
	}
	cancel()
	<-done
	if got := c.Stats.Resyncs.Load(); got != 0 {
		t.Errorf("resyncs = %d, want 0", got)
	}
	expectIdentical(t, local, c.cur, src.probes(30))
}

// TestHubNeverAdvertisesUnencodedVersion: while a trainer publishes deltas
// as fast as it can, a long-polling reader only ever hears of versions
// whose bytes it is handed — every 200's X-Replicate-Version is the last
// delta's to — and /replicate/status never has more than the one
// in-flight encode between accepted and visible.
func TestHubNeverAdvertisesUnencodedVersion(t *testing.T) {
	const deltas = 40
	n := newTestNet(t, 43)
	src := newTrainSrc(60, 20, 23)
	hub := NewHub()
	srv, _, _ := testCluster(t, hub)
	n.TrainBatch(src.batch(16))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	published := make(chan error, 1)
	go func() {
		for i := 0; i < deltas; i++ {
			n.TrainBatch(src.batch(16))
			if err := hub.Publish(n.SnapshotDelta()); err != nil {
				published <- err
				return
			}
		}
		published <- nil
	}()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	deadline := time.Now().Add(20 * time.Second)
	for v := uint64(1); v < deltas+1; {
		if time.Now().After(deadline) {
			t.Fatalf("reader stuck at v%d", v)
		}
		_, body := get("/replicate/status")
		var st struct{ Version, Published uint64 }
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Version > st.Published || st.Published-st.Version > 1 {
			t.Fatalf("status: version %d, published %d", st.Version, st.Published)
		}
		resp, body := get("/replicate/deltas?from=" + strconv.FormatUint(v, 10))
		if resp.StatusCode == http.StatusNoContent {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deltas from v%d: %s", v, resp.Status)
		}
		r := bytes.NewReader(body)
		for r.Len() > 0 {
			_, d, err := ReadMessage(r)
			if err != nil || d == nil {
				t.Fatalf("deltas from v%d: %v", v, err)
			}
			if d.FromVersion != v {
				t.Fatalf("delta v%d->v%d handed to a reader at v%d", d.FromVersion, d.ToVersion, v)
			}
			v = d.ToVersion
		}
		if hdr := resp.Header.Get("X-Replicate-Version"); hdr != strconv.FormatUint(v, 10) {
			t.Fatalf("X-Replicate-Version %s, last delta ends at v%d", hdr, v)
		}
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
}

// TestHubCloseEndsParkedPoll: a delta long-poll parked under the default
// 25 s wait answers 204 within a second of http.Server.Shutdown, once the
// hub's Close is registered with RegisterOnShutdown, and the shutdown
// drains cleanly.
func TestHubCloseEndsParkedPoll(t *testing.T) {
	hub := NewHub()
	if hub.pollWait != 25*time.Second {
		t.Fatalf("default poll wait %v, want 25s", hub.pollWait)
	}
	p, _ := newTestNet(t, 43).SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := &http.Server{Handler: mux}
	srv.RegisterOnShutdown(hub.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/replicate/deltas?from=1")
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	// Let the poll reach the handler and park: nothing newer than v1 comes.
	select {
	case code := <-status:
		t.Fatalf("poll answered %d before shutdown", code)
	case <-time.After(300 * time.Millisecond):
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("shutdown took %v with a parked poll, want under 1s", took)
	}
	if code := <-status; code != http.StatusNoContent {
		t.Fatalf("parked poll answered %d, want 204", code)
	}
	// A poll after Close answers at once rather than parking.
	start = time.Now()
	if hub.waitBeyond(context.Background(), 1, time.Minute) || time.Since(start) > time.Second {
		t.Fatal("a closed hub parked a poll")
	}
}
