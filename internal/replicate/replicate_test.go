package replicate

import (
	"context"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// trainSrc is a tiny deterministic workload: random sparse vectors with a
// planted label, just enough structure to make training touch rows.
type trainSrc struct {
	rng     *rand.Rand
	dim, nc int
}

func newTrainSrc(dim, classes int, seed uint64) *trainSrc {
	return &trainSrc{rng: rand.New(rand.NewPCG(seed, 0xabcd)), dim: dim, nc: classes}
}

func (s *trainSrc) batch(n int) sparse.Batch {
	var b sparse.Builder
	for i := 0; i < n; i++ {
		c := s.rng.IntN(s.nc)
		idx := make([]int32, 0, 6)
		seen := map[int32]bool{}
		for len(idx) < 6 {
			j := int32(s.rng.IntN(s.dim))
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		vals := make([]float32, len(idx))
		for j := range vals {
			vals[j] = 1 + float32(s.rng.NormFloat64())*0.1
		}
		b.Add(idx, vals, []int32{int32(c)})
	}
	batch, err := b.CSR()
	if err != nil {
		panic(err)
	}
	return batch
}

func (s *trainSrc) probes(n int) []sparse.Vector {
	b := s.batch(n)
	out := make([]sparse.Vector, n)
	for i := range out {
		out[i] = b.Sample(i)
	}
	return out
}

func newTestNet(t *testing.T, seed uint64) *network.Network {
	t.Helper()
	cfg := network.Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		Hash: network.DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1,
		RebuildEvery: 7, Seed: seed,
	}
	n, err := network.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableDeltaTracking()
	return n
}

// testCluster wires a hub into an httptest server plus a client with
// fast timeouts, and returns a swap channel carrying applied versions.
func testCluster(t *testing.T, hub *Hub) (*httptest.Server, *Client, chan uint64) {
	t.Helper()
	hub.pollWait = 100 * time.Millisecond
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	swaps := make(chan uint64, 256)
	c := &Client{
		BaseURL:       srv.URL,
		PollTimeout:   2 * time.Second,
		ResyncBackoff: 10 * time.Millisecond,
		OnSwap:        func(_ *network.Predictor, v uint64) { swaps <- v },
	}
	return srv, c, swaps
}

// waitVersion blocks until the swap channel delivers version v.
func waitVersion(t *testing.T, swaps chan uint64, v uint64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-swaps:
			if got == v {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for version %d", v)
		}
	}
}

// expectIdentical asserts the replica's predictor answers exactly like the
// trainer's local snapshot on every probe.
func expectIdentical(t *testing.T, local, remote *network.Predictor, probes []sparse.Vector) {
	t.Helper()
	for i, x := range probes {
		lw, rw := local.Predict(x, 5), remote.Predict(x, 5)
		if len(lw) != len(rw) {
			t.Fatalf("probe %d: local %v, remote %v", i, lw, rw)
		}
		for j := range lw {
			if lw[j] != rw[j] {
				t.Fatalf("probe %d: predictions diverge: local %v, remote %v", i, lw, rw)
			}
		}
	}
}

// TestFollowBitIdentity: the full loop — base sync over HTTP, long-polled
// deltas, COW applies — converges every published version and the replica
// answers bit-identically at the end.
func TestFollowBitIdentity(t *testing.T) {
	n := newTestNet(t, 31)
	src := newTrainSrc(60, 20, 9)
	hub := NewHub()
	_, c, swaps := testCluster(t, hub)

	for i := 0; i < 3; i++ {
		n.TrainBatch(src.batch(32))
	}
	p, d := n.SnapshotDelta()
	if d != nil {
		t.Fatal("first snapshot should be a base")
	}
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	waitVersion(t, swaps, 1)

	var local *network.Predictor
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			n.TrainBatch(src.batch(32))
		}
		var d *network.Delta
		local, d = n.SnapshotDelta()
		if d == nil {
			t.Fatal("expected a delta")
		}
		if err := hub.Publish(local, d); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion(t, swaps, 5)
	expectIdentical(t, local, c.cur, src.probes(30))
	if got := c.Stats.DeltasApplied.Load(); got != 4 {
		t.Errorf("deltas applied = %d, want 4", got)
	}
	if got := c.Stats.Resyncs.Load(); got != 0 {
		t.Errorf("resyncs = %d, want 0", got)
	}
	cancel()
	<-done
}

// TestRingGapResync: a replica that falls behind the hub's replay ring is
// answered 410 Gone and re-syncs from a fresh base, landing on the current
// version.
func TestRingGapResync(t *testing.T) {
	n := newTestNet(t, 5)
	src := newTrainSrc(60, 20, 3)
	hub := NewHub()
	hub.ringCap = 2
	_, c, _ := testCluster(t, hub)

	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	if c.version != 1 {
		t.Fatalf("synced version %d, want 1", c.version)
	}

	// Four more versions while the replica is away; the ring only holds the
	// last two, so from=1 is out of reach.
	var local *network.Predictor
	for i := 0; i < 4; i++ {
		n.TrainBatch(src.batch(32))
		var d *network.Delta
		local, d = n.SnapshotDelta()
		if err := hub.Publish(local, d); err != nil {
			t.Fatal(err)
		}
	}
	// Publish returns before the last delta's encode lands; the re-sync
	// below must find v5 visible.
	if err := hub.settle(); err != nil {
		t.Fatal(err)
	}
	resync, _ := c.pollOnce(ctx)
	if !resync {
		t.Fatal("a gapped replica must be told to re-sync")
	}
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	if c.version != 5 {
		t.Fatalf("re-synced to version %d, want 5", c.version)
	}
	expectIdentical(t, local, c.cur, src.probes(30))
}

// TestFutureVersionGoneResync: a replica claiming a version the hub has
// never published (trainer restarted) gets 410 and re-syncs.
func TestFutureVersionGoneResync(t *testing.T) {
	n := newTestNet(t, 5)
	src := newTrainSrc(60, 20, 3)
	hub := NewHub()
	_, c, _ := testCluster(t, hub)

	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	c.version = 40 // pretend we followed a previous trainer incarnation
	resync, _ := c.pollOnce(ctx)
	if !resync {
		t.Fatal("a future-version replica must be told to re-sync")
	}
}

// TestChaosCutMidDeltaResync: tearing a delta response mid-body (trainer
// dies mid-send) is detected, never applied, and healed by a base re-sync;
// the replica still converges bit-identically.
func TestChaosCutMidDeltaResync(t *testing.T) {
	plan, err := faultinject.Parse("replicate.send@2=cut:40", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)

	runChaosConvergence(t, 1)
	if len(plan.Fired()) == 0 {
		t.Fatal("chaos rule never fired")
	}
}

// TestChaosFlipCorruptChecksumResync: a silently flipped byte in a delta
// trips the section CRC, is rejected without tearing the served model, and
// heals through re-sync.
func TestChaosFlipCorruptChecksumResync(t *testing.T) {
	plan, err := faultinject.Parse("replicate.send@2=flip:30", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)

	runChaosConvergence(t, 1)
	if len(plan.Fired()) == 0 {
		t.Fatal("chaos rule never fired")
	}
}

// TestChaosRecvErrReconnect: a failed fetch marks the stream disconnected,
// then the next attempt reconnects and the replica converges.
func TestChaosRecvErrReconnect(t *testing.T) {
	plan, err := faultinject.Parse("replicate.recv@2=err", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)

	runChaosConvergence(t, 0)
	if len(plan.Fired()) == 0 {
		t.Fatal("chaos rule never fired")
	}
}

// runChaosConvergence drives the standard scenario under an armed chaos
// plan: base publish, client follows, two deltas land, and despite the
// injected fault the replica must converge to the final version with
// bit-identical predictions. minCorrupt asserts the fault was detected as
// corruption (0 for connection-level faults).
func runChaosConvergence(t *testing.T, minCorrupt uint64) {
	t.Helper()
	n := newTestNet(t, 17)
	src := newTrainSrc(60, 20, 23)
	hub := NewHub()
	_, c, swaps := testCluster(t, hub)

	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	waitVersion(t, swaps, 1)

	var local *network.Predictor
	for i := 0; i < 2; i++ {
		n.TrainBatch(src.batch(32))
		var d *network.Delta
		local, d = n.SnapshotDelta()
		if err := hub.Publish(local, d); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion(t, swaps, 3)
	expectIdentical(t, local, c.cur, src.probes(30))
	if got := c.Stats.Corrupt.Load(); got < minCorrupt {
		t.Errorf("corrupt count = %d, want >= %d", got, minCorrupt)
	}
	cancel()
	<-done
}

// TestConfigChecksumMismatchResync: a delta whose config checksum does not
// match the replica's model (trainer restarted with a different shape) is
// rejected and forces a base re-sync rather than a torn apply.
func TestConfigChecksumMismatchResync(t *testing.T) {
	src := newTrainSrc(60, 20, 3)

	// Trainer A: the shape the replica first syncs.
	nA := newTestNet(t, 5)
	hubA := NewHub()
	_, c, _ := testCluster(t, hubA)
	nA.TrainBatch(src.batch(32))
	pA, _ := nA.SnapshotDelta()
	if err := hubA.Publish(pA, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}

	// Trainer B: same URL role, different hidden width — one base (v1, same
	// version number the replica holds) plus one delta (v1→v2).
	cfgB := network.Config{
		InputDim: 60, HiddenDim: 24, OutputDim: 20,
		Hash: network.DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1, RebuildEvery: 50, Seed: 6,
	}
	nB, err := network.New(&cfgB)
	if err != nil {
		t.Fatal(err)
	}
	nB.EnableDeltaTracking()
	nB.TrainBatch(src.batch(32))
	pB, _ := nB.SnapshotDelta()
	hubB := NewHub()
	hubB.pollWait = 100 * time.Millisecond
	if err := hubB.Publish(pB, nil); err != nil {
		t.Fatal(err)
	}
	nB.TrainBatch(src.batch(32))
	pB2, dB := nB.SnapshotDelta()
	if err := hubB.Publish(pB2, dB); err != nil {
		t.Fatal(err)
	}
	muxB := http.NewServeMux()
	hubB.Register(muxB)
	srvB := httptest.NewServer(muxB)
	defer srvB.Close()

	c.BaseURL = srvB.URL
	resync, _ := c.pollOnce(ctx)
	if !resync {
		t.Fatal("config-mismatched delta must force a re-sync")
	}
	if got := c.Stats.Corrupt.Load(); got == 0 {
		t.Error("config mismatch should count as corruption")
	}
	if c.cur.ConfigChecksum() != pA.ConfigChecksum() {
		t.Error("rejected delta must not touch the served predictor")
	}
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	if c.cur.ConfigChecksum() != pB.ConfigChecksum() {
		t.Error("re-sync should install the new trainer's model")
	}
}

// TestHubStatusRing: the status endpoint reports version and ring shape.
func TestHubStatusRing(t *testing.T) {
	n := newTestNet(t, 5)
	src := newTrainSrc(60, 20, 3)
	hub := NewHub()
	hub.ringCap = 2
	n.TrainBatch(src.batch(16))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n.TrainBatch(src.batch(16))
		p, d := n.SnapshotDelta()
		if err := hub.Publish(p, d); err != nil {
			t.Fatal(err)
		}
	}
	if hub.Version() != 4 {
		t.Fatalf("version %d, want 4", hub.Version())
	}
	// The last delta may still be encoding: wait for it to land.
	if err := hub.settle(); err != nil {
		t.Fatal(err)
	}
	if _, from, n := ringShape(t, hub); n != 2 || from != 2 {
		t.Fatalf("ring should hold the last 2 deltas from v2, got len %d from %d", n, from)
	}
	if _, _, err := hub.deltasSince(1); err != errGone {
		t.Fatalf("deltasSince(1) = %v, want errGone", err)
	}
	got, _, err := hub.deltasSince(2)
	if err != nil || len(got) != 2 {
		t.Fatalf("deltasSince(2) = %d msgs, %v; want 2, nil", len(got), err)
	}
}
