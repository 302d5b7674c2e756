package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/quant"
)

// Sparse delta snapshots: the engine-level machinery behind snapshot
// replication (internal/replicate). SLIDE's defining property is that each
// optimizer step touches only the active-set rows, so consecutive snapshots
// differ in a tiny fraction of weights. With EnableDeltaTracking on, the
// layers journal every row/column their ADAM passes step, and SnapshotDelta
// turns the journal into:
//
//   - a copy-on-write Predictor (only touched vectors copied; the rest
//     share backing arrays with the previous snapshot), and
//   - a Delta naming exactly what changed, with writers that encode the
//     touched vectors — plus the full (small) dense state: hidden bias,
//     middle stack — from the snapshot's immutable views.
//
// A remote Predictor applies the encoded payloads with ApplyDelta, again
// copy-on-write, and lands bit-identical to a local snapshot at the same
// step: weights match because the payloads carry exact bytes, inference RNG
// matches because the predictor seed is a pure function of (config seed,
// step), and LSH table queries match because tables ship whole on the rare
// versions where a scheduled rebuild changed them and are shared (pointer
// equality on the replica, clone sharing on the trainer) everywhere else.

// EnableDeltaTracking turns on touch journaling in the sparse layers so
// subsequent Snapshot/SnapshotDelta calls are copy-on-write and emit deltas.
// Call before training (or between batches); idempotent.
func (n *Network) EnableDeltaTracking() {
	if n.deltas {
		return
	}
	n.deltas = true
	n.hidden.EnableJournal()
	n.output.EnableJournal()
	// The middle stack is dense-updated every batch (ApplyAdamAll) — no
	// journal; deltas always carry it whole.
}

// Delta names what changed between two consecutive snapshots of one
// network, holding references into the *to* snapshot's immutable views so
// payloads can be encoded at any time after the snapshot (training may have
// moved on; the views never change).
type Delta struct {
	// FromStep/ToStep are the optimizer step counts of the two snapshots.
	FromStep, ToStep int64
	// HiddenCols/OutputRows are the journaled touched ids (ascending).
	HiddenCols, OutputRows []int32
	// TablesChanged reports whether a scheduled LSH rebuild ran in the
	// interval; only then does the delta carry table bytes.
	TablesChanged bool

	to *forwardState
}

// SnapshotDelta is Snapshot plus the delta against the previous snapshot.
// The delta is nil when tracking is disabled or this is the first snapshot
// since tracking was enabled (callers publish a full base instead).
func (n *Network) SnapshotDelta() (*Predictor, *Delta) {
	var f *forwardState
	var d *Delta
	if !n.deltas || n.lastSnap == nil {
		if n.deltas {
			// Discard journal entries accumulated before the first snapshot:
			// the full copy below carries them.
			n.hidden.DrainJournal()
			n.output.DrainJournal()
		}
		f = n.fullSnapshotState()
	} else {
		hiddenCols := n.hidden.DrainJournal()
		outputRows := n.output.DrainJournal()
		tablesChanged := n.rebuildGen != n.lastSnapGen
		f = &forwardState{
			cfg:       n.cfg,
			hidden:    n.hidden.SnapshotWeightsCOW(n.lastSnap.hidden, hiddenCols),
			output:    n.output.SnapshotWeightsCOW(n.lastSnap.output, outputRows),
			middleAll: n.fwd.middleAll,
			dims:      n.fwd.dims,
			lastDim:   n.lastDim,
			all:       n.fwd.all,
		}
		for _, ml := range n.middle {
			f.middle = append(f.middle, ml.SnapshotWeights())
		}
		if n.tables != nil {
			if tablesChanged {
				f.tables = n.tables.Clone()
			} else {
				f.tables = n.lastSnap.tables // unchanged since last snapshot: share
			}
		} else if n.sh != nil {
			if tablesChanged {
				f.shTables = cloneShardTables(n.sh.tables)
			} else {
				f.shTables = n.lastSnap.shTables // unchanged: share the clone
			}
			f.plan = n.sh.plan
		}
		d = &Delta{
			FromStep:      n.lastStep,
			ToStep:        n.step,
			HiddenCols:    hiddenCols,
			OutputRows:    outputRows,
			TablesChanged: tablesChanged,
			to:            f,
		}
	}
	if n.deltas {
		n.lastSnap = f
		n.lastStep = n.step
		n.lastSnapGen = n.rebuildGen
	}
	p := newPredictor(f, snapshotSeed(&n.cfg, n.step))
	p.steps = n.step
	return p, d
}

// WriteHidden encodes the touched hidden columns (plus the full hidden
// bias, which moves every batch).
func (d *Delta) WriteHidden(w io.Writer) error {
	return d.to.hidden.SerializeColsDelta(w, d.HiddenCols)
}

// WriteMiddle encodes the dense middle stack whole (layer count, then each
// view). Empty stack encodes as a zero count.
func (d *Delta) WriteMiddle(w io.Writer) error { return writeMiddleViews(w, d.to.middle) }

// WriteOutput encodes the touched output rows and their biases.
func (d *Delta) WriteOutput(w io.Writer) error {
	return d.to.output.SerializeRowsDelta(w, d.OutputRows)
}

// WriteOutputQ encodes the touched output rows quantized to bits (8):
// each journaled row is packed on the fly from the snapshot's f32 view, so
// delta publish stays O(touched rows) even on a quantized stream. Because
// row quantization is a pure per-row function, the receiver's patched view
// is bit-identical to a full re-quantize of the trainer snapshot.
func (d *Delta) WriteOutputQ(w io.Writer, bits int) error {
	return quant.WriteRowsDelta(w, d.to.output, d.OutputRows, bits)
}

// WriteTables encodes the full LSH table state (the single set, or every
// per-shard set back to back on sharded models). Valid only when
// TablesChanged — otherwise the receiver keeps its current tables.
func (d *Delta) WriteTables(w io.Writer) error {
	if !d.TablesChanged || !d.to.sampled() {
		return fmt.Errorf("network: delta carries no table change")
	}
	if len(d.to.shTables) > 0 {
		return serializeShardTables(w, d.to.shTables)
	}
	return d.to.tables.Serialize(w)
}

// ConfigChecksum fingerprints the model-shape fields a delta producer and
// consumer must agree on (dims, hash family and geometry, sampling bounds,
// precision, seed). Training-schedule fields (LR, betas, rebuild cadence)
// are deliberately excluded — an LR schedule must not force re-syncs.
func (d *Delta) ConfigChecksum() uint32 { return configChecksum(&d.to.cfg) }

// ConfigChecksum is the predictor-side counterpart of Delta.ConfigChecksum.
func (p *Predictor) ConfigChecksum() uint32 { return configChecksum(&p.fwd.cfg) }

func configChecksum(cfg *Config) uint32 {
	var b bytes.Buffer
	fields := []uint64{
		uint64(cfg.InputDim), uint64(cfg.HiddenDim), uint64(cfg.OutputDim),
		uint64(cfg.HiddenActivation), uint64(cfg.Hash),
		uint64(cfg.K), uint64(cfg.L), uint64(cfg.BinSize),
		uint64(cfg.BucketCap), uint64(cfg.BucketPolicy),
		uint64(cfg.MinActive), uint64(cfg.MaxActive),
		boolU64(cfg.NoSampling), boolU64(cfg.UniformSampling),
		uint64(cfg.Precision), cfg.Seed,
		uint64(len(cfg.HiddenLayers)),
	}
	for _, d := range cfg.HiddenLayers {
		fields = append(fields, uint64(d))
	}
	// Shards partitions the active-set budgets and LSH tables, so producer
	// and consumer must agree on it. Appended only when set, so unsharded
	// fingerprints keep their pre-sharding values.
	if cfg.Shards > 0 {
		fields = append(fields, uint64(cfg.Shards))
	}
	binary.Write(&b, binary.LittleEndian, fields)
	return crc32.Checksum(b.Bytes(), castagnoli)
}

// WriteBaseConfig encodes the predictor's config and step — the replication
// base counterpart of the checkpoint config section (same payload layout;
// the rebuild-schedule position is zeroed, a replica does not train).
func (p *Predictor) WriteBaseConfig(w io.Writer) error {
	return writeConfigPayload(w, &p.fwd.cfg, p.steps, 0, 0, 0)
}

// WriteHidden encodes the full hidden view (weights and bias, no optimizer
// state).
func (p *Predictor) WriteHidden(w io.Writer) error { return p.fwd.hidden.SerializeView(w) }

// WriteMiddle encodes the dense middle stack (layer count, then each view).
func (p *Predictor) WriteMiddle(w io.Writer) error { return writeMiddleViews(w, p.fwd.middle) }

// WriteOutput encodes the full output view: the f32/BF16 codec on a
// full-precision predictor, the packed codec on a quantized one.
func (p *Predictor) WriteOutput(w io.Writer) error {
	if q := p.fwd.qout; q != nil {
		return q.SerializeView(w)
	}
	return p.fwd.output.SerializeView(w)
}

// WriteOutputQ encodes the output view quantized to bits (8) — the
// hub-side base encoder for a quantized stream. An already-quantized
// predictor at the same width writes its packed rows directly; otherwise
// the f32 view is quantized on the fly (the source is unmodified).
func (p *Predictor) WriteOutputQ(w io.Writer, bits int) error {
	if q := p.fwd.qout; q != nil {
		if q.Bits != bits {
			return fmt.Errorf("network: predictor is quantized int%d, stream wants int%d", q.Bits, bits)
		}
		return q.SerializeView(w)
	}
	q, err := quant.QuantizeRowWeights(p.fwd.output, bits)
	if err != nil {
		return err
	}
	return q.SerializeView(w)
}

// HasTables reports whether the predictor carries LSH tables (single-set or
// per-shard — and thus whether WriteTables produces a payload).
func (p *Predictor) HasTables() bool { return p.fwd.sampled() }

// WriteTables encodes the full LSH table state (the single set, or every
// per-shard set back to back on sharded models).
func (p *Predictor) WriteTables(w io.Writer) error {
	if len(p.fwd.shTables) > 0 {
		return serializeShardTables(w, p.fwd.shTables)
	}
	if p.fwd.tables == nil {
		return fmt.Errorf("network: predictor has no LSH tables")
	}
	return p.fwd.tables.Serialize(w)
}

func writeMiddleViews(w io.Writer, middle []*layer.RowWeights) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(middle))); err != nil {
		return err
	}
	for i, mv := range middle {
		if err := mv.SerializeView(w); err != nil {
			return fmt.Errorf("middle layer %d: %w", i+1, err)
		}
	}
	return nil
}

func readMiddleViews(r io.Reader, dims []int) ([]*layer.RowWeights, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("reading middle-stack count: %w", err)
	}
	if int(count) != len(dims)-1 {
		return nil, fmt.Errorf("middle stack carries %d layers, config declares %d", count, len(dims)-1)
	}
	var middle []*layer.RowWeights
	for i := 1; i < len(dims); i++ {
		mv, err := layer.ReadRowWeights(r, dims[i-1], dims[i], layer.FP32)
		if err != nil {
			return nil, fmt.Errorf("middle layer %d: %w", i, err)
		}
		middle = append(middle, mv)
	}
	return middle, nil
}

// BaseParts carries the decoded (already CRC-verified) payloads of one full
// base snapshot. Tables must be nil exactly when the config disables
// sampling. QBits != 0 declares the Output payload quantized (written by
// WriteOutputQ): the reconstructed predictor serves from packed int rows.
type BaseParts struct {
	Config, Hidden, Middle, Output, Tables []byte
	QBits                                  int
}

// NewPredictorFromBase reconstructs a serving Predictor from base payloads
// written by the Write* methods above. The result is bit-identical to the
// trainer-side snapshot it was encoded from: weights come byte-exact from
// the payloads, and the inference seed is re-derived from (config seed,
// step).
func NewPredictorFromBase(parts BaseParts) (*Predictor, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("network: base snapshot: %w", fmt.Errorf(format, args...))
	}
	cfg, step, _, _, err := parseConfigPayload(bytes.NewReader(parts.Config), fail)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("network: base snapshot config invalid: %w", err)
	}
	dims, lastDim, middleAll, all := forwardGeometry(&cfg)

	// Every view is read against the shape the config declares; a payload
	// whose header says otherwise is refused before it allocates anything.
	hidden, err := layer.ReadColWeights(bytes.NewReader(parts.Hidden), cfg.InputDim, cfg.HiddenDim, cfg.Precision, cfg.HiddenActivation)
	if err != nil {
		return nil, fail("hidden: %w", err)
	}
	middle, err := readMiddleViews(bytes.NewReader(parts.Middle), dims)
	if err != nil {
		return nil, fail("%w", err)
	}
	var output *layer.RowWeights
	var qout *quant.RowQ
	if parts.QBits != 0 {
		qout, err = quant.ReadRowQ(bytes.NewReader(parts.Output), lastDim, cfg.OutputDim, parts.QBits)
	} else {
		output, err = layer.ReadRowWeights(bytes.NewReader(parts.Output), lastDim, cfg.OutputDim, cfg.Precision)
	}
	if err != nil {
		return nil, fail("output: %w", err)
	}

	var tables *lsh.TableSet
	var shTables []*lsh.TableSet
	var plan *shardPlan
	if cfg.Shards > 0 {
		// Sharded model: rebuild the (config-derived) shard geometry and one
		// table set per shard, restored from the concatenated payload.
		plan = newShardPlan(&cfg)
		for s := 0; s < plan.s; s++ {
			ts, err := newTables(&cfg, lastDim)
			if err != nil {
				return nil, err
			}
			shTables = append(shTables, ts)
		}
		if parts.Tables == nil {
			return nil, fail("sharded config requires a tables payload")
		}
		if err := deserializeShardTables(bytes.NewReader(parts.Tables), shTables, plan); err != nil {
			return nil, fail("tables: %w", err)
		}
	} else {
		tables, err = newTables(&cfg, lastDim)
		if err != nil {
			return nil, err
		}
		if (tables != nil) != (parts.Tables != nil) {
			return nil, fail("tables payload presence (%v) disagrees with config sampling (%v)",
				parts.Tables != nil, tables != nil)
		}
		if tables != nil {
			if err := tables.Deserialize(bytes.NewReader(parts.Tables), 0, int32(cfg.OutputDim)); err != nil {
				return nil, fail("tables: %w", err)
			}
		}
	}

	f := &forwardState{
		cfg:       cfg,
		hidden:    hidden,
		middle:    middle,
		output:    output,
		qout:      qout,
		tables:    tables,
		shTables:  shTables,
		plan:      plan,
		middleAll: middleAll,
		dims:      dims,
		lastDim:   lastDim,
		all:       all,
	}
	p := newPredictor(f, snapshotSeed(&cfg, step))
	p.steps = step
	return p, nil
}

// DeltaParts carries the decoded (already CRC-verified) payloads of one
// delta. Tables is nil when the interval saw no LSH rebuild — the receiver
// keeps its current tables. QBits != 0 declares the Output payload
// quantized (written by Delta.WriteOutputQ) and must match the width the
// receiving predictor holds.
type DeltaParts struct {
	FromStep, ToStep       int64
	Hidden, Middle, Output []byte
	Tables                 []byte
	QBits                  int
}

// ApplyDelta patches the delta onto p, returning a new Predictor at
// ToStep. Copy-on-write: only rows the delta carries are fresh allocations,
// everything else shares backing arrays with p, which is never modified —
// a half-applied delta can simply be dropped, so a decode failure can never
// tear the currently-served version. Admission validation is built in: the
// patched rows (exactly the ones the delta touched, plus every bias) are
// scanned for NaN/Inf and a poisoned delta is refused with an error wrapping
// ErrNonFinite — the replica keeps serving the version it has. The caller
// must have verified that FromStep matches (it is re-checked here) and that
// the config fingerprints agree.
func (p *Predictor) ApplyDelta(parts DeltaParts) (*Predictor, error) {
	if parts.FromStep != p.steps {
		return nil, fmt.Errorf("network: delta applies to step %d, predictor is at step %d",
			parts.FromStep, p.steps)
	}
	cfg := p.fwd.cfg
	hidden, hiddenIDs, err := p.fwd.hidden.PatchCols(bytes.NewReader(parts.Hidden))
	if err != nil {
		return nil, fmt.Errorf("network: delta hidden: %w", err)
	}
	middle, err := readMiddleViews(bytes.NewReader(parts.Middle), p.fwd.dims)
	if err != nil {
		return nil, fmt.Errorf("network: delta middle: %w", err)
	}
	if (parts.QBits != 0) != (p.fwd.qout != nil) {
		return nil, fmt.Errorf("network: delta quantization (int%d) disagrees with predictor (quantized=%v)",
			parts.QBits, p.fwd.qout != nil)
	}
	var output *layer.RowWeights
	var qout *quant.RowQ
	var outputIDs []int32
	if q := p.fwd.qout; q != nil {
		if parts.QBits != q.Bits {
			return nil, fmt.Errorf("network: delta is int%d, predictor holds int%d", parts.QBits, q.Bits)
		}
		qout, outputIDs, err = q.PatchRows(bytes.NewReader(parts.Output))
		if err != nil {
			return nil, fmt.Errorf("network: delta output: %w", err)
		}
	} else {
		output, outputIDs, err = p.fwd.output.PatchRows(bytes.NewReader(parts.Output))
		if err != nil {
			return nil, fmt.Errorf("network: delta output: %w", err)
		}
	}
	if err := hidden.CheckFiniteCols(hiddenIDs); err != nil {
		return nil, fmt.Errorf("network: delta to step %d: %w", parts.ToStep, err)
	}
	for i, mv := range middle {
		if err := mv.CheckFinite(1); err != nil {
			return nil, fmt.Errorf("network: delta to step %d: middle %d: %w", parts.ToStep, i+1, err)
		}
	}
	if qout != nil {
		if err := qout.CheckFiniteRows(outputIDs); err != nil {
			return nil, fmt.Errorf("network: delta to step %d: output: %w", parts.ToStep, err)
		}
	} else if err := output.CheckFiniteRows(outputIDs); err != nil {
		return nil, fmt.Errorf("network: delta to step %d: output: %w", parts.ToStep, err)
	}
	tables := p.fwd.tables
	shTables := p.fwd.shTables
	if parts.Tables != nil {
		if p.fwd.plan != nil {
			// Sharded: the payload carries every shard's set; deserialize into
			// fresh sets so the previous predictor's tables stay untouched.
			fresh := make([]*lsh.TableSet, p.fwd.plan.s)
			for s := range fresh {
				ts, err := newTables(&cfg, p.fwd.lastDim)
				if err != nil {
					return nil, err
				}
				fresh[s] = ts
			}
			if err := deserializeShardTables(bytes.NewReader(parts.Tables), fresh, p.fwd.plan); err != nil {
				return nil, fmt.Errorf("network: delta tables: %w", err)
			}
			shTables = fresh
		} else {
			if tables == nil {
				return nil, fmt.Errorf("network: delta carries tables but predictor has none")
			}
			fresh, err := newTables(&cfg, p.fwd.lastDim)
			if err != nil {
				return nil, err
			}
			if err := fresh.Deserialize(bytes.NewReader(parts.Tables), 0, int32(cfg.OutputDim)); err != nil {
				return nil, fmt.Errorf("network: delta tables: %w", err)
			}
			tables = fresh
		}
	}
	f := &forwardState{
		cfg:       cfg,
		hidden:    hidden,
		middle:    middle,
		output:    output,
		qout:      qout,
		tables:    tables,
		shTables:  shTables,
		plan:      p.fwd.plan,
		middleAll: p.fwd.middleAll,
		dims:      p.fwd.dims,
		lastDim:   p.fwd.lastDim,
		all:       p.fwd.all,
	}
	np := newPredictor(f, snapshotSeed(&cfg, parts.ToStep))
	np.steps = parts.ToStep
	return np, nil
}
