package slide

import "github.com/slide-cpu/slide/internal/network"

// Sparse delta snapshots. SLIDE's LSH-sampled training touches only the
// active-set rows each step, so consecutive snapshots differ in a small
// fraction of the model. EnableDeltas turns on touch journaling;
// SnapshotDelta then returns each snapshot as a copy-on-write Predictor
// plus a Delta naming exactly the rows that moved — the feed for the
// replication subsystem (internal/replicate, slide-serve -follow), which
// streams deltas to serving replicas instead of re-shipping the model.

// EnableDeltas turns on per-row touch journaling so snapshots become
// copy-on-write and SnapshotDelta emits sparse deltas. Call before
// training (or between training calls); idempotent. Snapshot cost drops
// from O(model) to O(rows touched since the last snapshot).
func (m *Model) EnableDeltas() { m.net.EnableDeltaTracking() }

// Delta describes what changed between two consecutive snapshots of one
// model. It references the newer snapshot's immutable views, so it can be
// encoded (via the replication wire format) at any time, even while the
// model keeps training.
type Delta struct {
	d *network.Delta
}

// FromStep and ToStep are the optimizer step counts the delta connects.
func (d *Delta) FromStep() int64 { return d.d.FromStep }

// ToStep is the optimizer step count of the newer snapshot.
func (d *Delta) ToStep() int64 { return d.d.ToStep }

// TouchedCols is the number of hidden-layer weight columns the delta
// carries; TouchedRows the number of output-layer rows.
func (d *Delta) TouchedCols() int { return len(d.d.HiddenCols) }

// TouchedRows is the number of output-layer rows the delta carries.
func (d *Delta) TouchedRows() int { return len(d.d.OutputRows) }

// TablesChanged reports whether a scheduled LSH rebuild ran in the
// interval (only then does the encoded delta carry table bytes).
func (d *Delta) TablesChanged() bool { return d.d.TablesChanged }

// Raw exposes the engine-level delta for the replication subsystem.
// Safe on a nil Delta (returns nil), so WithDeltas publish hooks can
// forward d.Raw() unconditionally.
func (d *Delta) Raw() *network.Delta {
	if d == nil {
		return nil
	}
	return d.d
}

// Raw exposes the engine-level predictor for the replication subsystem.
func (p *Predictor) Raw() *network.Predictor { return p.p }

// FromRaw is the inverse of Raw: it serves an engine-level predictor under
// the given version. A replica passes the predictor it rebuilt from the
// replication stream with the hub's version, which across a cluster names
// the weights, in place of this process's snapshot counter.
func FromRaw(p *network.Predictor, version uint64) *Predictor {
	return &Predictor{p: p, out: p.Config().OutputDim, version: version}
}

// SnapshotDelta is Snapshot plus the delta against the previous snapshot.
// The delta is nil when EnableDeltas was never called or this is the
// first snapshot since it was — publish a full base then. Same contract
// as Snapshot: call between training calls.
func (m *Model) SnapshotDelta() (*Predictor, *Delta) {
	np, nd := m.net.SnapshotDelta()
	p := FromRaw(np, snapshotVersion.Add(1))
	if nd == nil {
		return p, nil
	}
	return p, &Delta{d: nd}
}
