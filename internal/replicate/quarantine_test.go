package replicate

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
)

// poisonNet arms the train.batch nan action for the next batch, trains it
// (planting NaN in the hidden bias, which then propagates into every
// touched row's update), and disarms.
func poisonNet(t *testing.T, n *network.Network, src *trainSrc) {
	t.Helper()
	plan, err := faultinject.Parse("train.batch@1=nan:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	n.TrainBatch(src.batch(32))
}

// TestHubQuarantinesPoisonedSnapshot: a poisoned candidate never becomes a
// replicated version — Publish refuses it, the version does not advance,
// and a following replica keeps serving the last good version untouched.
func TestHubQuarantinesPoisonedSnapshot(t *testing.T) {
	n := newTestNet(t, 31)
	src := newTrainSrc(60, 20, 9)
	hub := NewHub()
	_, c, swaps := testCluster(t, hub)

	for i := 0; i < 3; i++ {
		n.TrainBatch(src.batch(32))
	}
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	probes := src.probes(30)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	waitVersion(t, swaps, 1)
	goodVersion := c.Stats.Version.Load()

	// Poison the trainer and try to publish: both the delta path and the
	// fresh-base path must be refused at admission.
	poisonNet(t, n, src)
	pp, d := n.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta after training")
	}
	if err := hub.Publish(pp, d); !errors.Is(err, network.ErrNonFinite) {
		t.Fatalf("poisoned delta publish err = %v, want ErrNonFinite", err)
	}
	if err := hub.Publish(pp, nil); !errors.Is(err, network.ErrNonFinite) {
		t.Fatalf("poisoned base publish err = %v, want ErrNonFinite", err)
	}
	if got := hub.Version(); got != 1 {
		t.Fatalf("hub version advanced to %d past a quarantined snapshot", got)
	}
	hub.mu.Lock()
	q := hub.quarantined
	hub.mu.Unlock()
	if q != 2 {
		t.Fatalf("hub quarantined = %d, want 2", q)
	}

	// The replica never saw the poisoned version and still answers on the
	// last good one, finite everywhere.
	if got := c.Stats.Version.Load(); got != goodVersion {
		t.Fatalf("replica moved to version %d during quarantine", got)
	}
	if err := c.cur.CheckFinite(); err != nil {
		t.Fatalf("replica serves non-finite weights: %v", err)
	}
	if got := c.Stats.Quarantined.Load(); got != 0 {
		t.Fatalf("replica quarantined %d messages; the hub should have", got)
	}
	for _, x := range probes {
		if got := c.cur.Predict(x, 5); len(got) == 0 {
			t.Fatal("replica stopped answering during quarantine")
		}
	}
	cancel()
	<-done
}

// TestReplicaQuarantinesPoisonedDelta: defense in depth — a poisoned delta
// that reaches a replica anyway (here: hand-encoded, bypassing the hub's
// admission check) is refused by ApplyDelta's exact row scan, counted as
// quarantined (not corrupt), and the served predictor never tears.
func TestReplicaQuarantinesPoisonedDelta(t *testing.T) {
	n := newTestNet(t, 31)
	src := newTrainSrc(60, 20, 9)
	hub := NewHub()
	_, c, _ := testCluster(t, hub)

	for i := 0; i < 3; i++ {
		n.TrainBatch(src.batch(32))
	}
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	served := c.cur

	poisonNet(t, n, src)
	_, d := n.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta after training")
	}
	enc, err := EncodeDeltaQ(d, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, err := ReadMessage(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.cur.ApplyDelta(msg.Parts); !errors.Is(err, network.ErrNonFinite) {
		t.Fatalf("poisoned delta apply err = %v, want ErrNonFinite", err)
	}
	if c.cur != served {
		t.Fatal("served predictor replaced by a refused delta")
	}
	if err := c.cur.CheckFinite(); err != nil {
		t.Fatalf("served predictor non-finite after refused apply: %v", err)
	}
}
