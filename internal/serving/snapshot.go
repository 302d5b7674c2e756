package serving

import (
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
)

// SnapshotManager publishes versioned Predictor snapshots to the serving
// pipeline. Publish and Current are safe for unbounded concurrent use;
// a swap never stalls in-flight work, because consumers (a Batcher flush,
// a request's handler) capture Current once per operation and finish on
// the snapshot they captured. Old snapshots stay valid as long as any
// in-flight batch references them (they are immutable; the garbage
// collector reclaims them once the last batch completes).
type SnapshotManager struct {
	cur         atomic.Pointer[snapshotBox]
	swaps       atomic.Uint64
	quarantined atomic.Uint64
	quarLast    atomic.Bool
	quarReason  atomic.Pointer[string]
}

// finiteChecker is implemented by predictors that can validate their weights
// for NaN/Inf (slide.Predictor, local or replicated). Publish quarantines a
// candidate that fails the check instead of swapping it in.
type finiteChecker interface {
	CheckFinite() error
}

// snapshotBox wraps the interface value so the hot path is a single atomic
// pointer load. publishedAt rides along for staleness reporting.
type snapshotBox struct {
	p           Predictor
	publishedAt time.Time
}

// NewSnapshotManager creates a manager serving p.
func NewSnapshotManager(p Predictor) *SnapshotManager {
	m := &SnapshotManager{}
	m.cur.Store(&snapshotBox{p: p, publishedAt: time.Now()})
	return m
}

// Publish makes p the snapshot served to all subsequent batches. In-flight
// batches finish on the snapshot they already captured. Panics on nil — a
// pipeline must always have a current snapshot.
//
// Admission validation: when p can CheckFinite, a candidate carrying
// NaN/Inf weights is quarantined — the swap is refused, the pipeline keeps
// serving the last good snapshot, and Quarantined/QuarantineReason report
// the refusal (surfaced via /stats and /healthz/ready).
func (m *SnapshotManager) Publish(p Predictor) {
	if p == nil {
		panic("serving: Publish(nil)")
	}
	// Chaos hook: stall rules here simulate a slow publisher (a training
	// loop busy with a rebuild). Publication itself cannot fail, so err
	// rules are ignored — the swap below always happens.
	_ = faultinject.Hit(faultinject.PointSnapshotPublish)
	if c, ok := p.(finiteChecker); ok {
		if err := c.CheckFinite(); err != nil {
			m.quarantined.Add(1)
			reason := err.Error()
			m.quarReason.Store(&reason)
			m.quarLast.Store(true)
			return
		}
	}
	m.cur.Store(&snapshotBox{p: p, publishedAt: time.Now()})
	m.swaps.Add(1)
	m.quarLast.Store(false)
}

// Current returns the snapshot serving new work right now.
func (m *SnapshotManager) Current() Predictor {
	return m.cur.Load().p
}

// Age reports how long ago the current snapshot was published — the
// staleness signal behind readiness: a pipeline whose training side stopped
// publishing is serving increasingly stale versions.
func (m *SnapshotManager) Age() time.Duration {
	return time.Since(m.cur.Load().publishedAt)
}

// Swaps counts Publish calls since construction — /stats observability for
// how often the model refreshes.
func (m *SnapshotManager) Swaps() uint64 {
	return m.swaps.Load()
}

// Quarantined counts candidates Publish refused for non-finite weights.
func (m *SnapshotManager) Quarantined() uint64 {
	return m.quarantined.Load()
}

// QuarantineReason returns the most recent quarantine's error text ("" when
// no candidate was ever refused).
func (m *SnapshotManager) QuarantineReason() string {
	if s := m.quarReason.Load(); s != nil {
		return *s
	}
	return ""
}

// QuarantinedLast reports whether the most recent Publish was refused —
// i.e. the pipeline is serving an older snapshot than the newest candidate.
// Cleared by the next successful swap; /healthz/ready surfaces it.
func (m *SnapshotManager) QuarantinedLast() bool {
	return m.quarLast.Load()
}
