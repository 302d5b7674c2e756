package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/slide-cpu/slide/internal/layer"
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
	// prev is the previous snapshot under tracking and empty otherwise —
	// tracking off, or the first snapshot since it was enabled — and a
	// copy-on-write against nothing is the full copy. Journal entries from
	// before the first snapshot are drained and dropped: the full copy
	// carries them.
	prev := n.lastSnap
	if prev == nil {
		prev = &forwardState{}
	}
	var hiddenCols, outputRows []int32
	if n.deltas {
		hiddenCols, outputRows = n.hidden.DrainJournal(), n.output.DrainJournal()
	}
	tablesChanged := n.rebuildGen != n.lastSnapGen
	f := &forwardState{
		cfg:       n.cfg,
		hidden:    n.hidden.SnapshotWeightsCOW(prev.hidden, hiddenCols),
		output:    n.output.SnapshotWeightsCOW(prev.output, outputRows),
		smp:       prev.smp,        // unchanged since the last snapshot: share the clone
		middleAll: n.fwd.middleAll, // immutable index lists, shared
		dims:      n.fwd.dims,
		lastDim:   n.lastDim,
		all:       n.fwd.all,
	}
	for _, ml := range n.middle {
		f.middle = append(f.middle, ml.SnapshotWeights())
	}
	if f.smp == nil || tablesChanged {
		f.smp = n.smp.clone()
	}
	var d *Delta
	if n.lastSnap != nil {
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

// WriteOutput encodes the touched output rows and their biases at bits: 0
// keeps the model's own precision, 8 packs each journaled row on the fly from
// the snapshot's f32 view, so delta publish stays O(touched rows) even on a
// quantized stream. Because row quantization is a pure per-row function, the
// receiver's patched view is bit-identical to a full re-quantize of the
// trainer snapshot.
func (d *Delta) WriteOutput(w io.Writer, bits int) error {
	if bits == 0 {
		return d.to.output.SerializeRowsDelta(w, d.OutputRows)
	}
	return quant.WriteRowsDelta(w, d.to.output, d.OutputRows, bits)
}

// WriteTables encodes the full LSH table state (every set of the sampler,
// back to back). Valid only when TablesChanged — otherwise the receiver
// keeps its current tables.
func (d *Delta) WriteTables(w io.Writer) error {
	if !d.TablesChanged || !d.to.smp.sampled() {
		return fmt.Errorf("network: delta carries no table change")
	}
	return d.to.smp.serialize(w)
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

// WriteOutput encodes the full output view at bits: 0 is the f32/BF16 codec
// of a full-precision predictor, 8 the packed codec. A quantized predictor
// writes its packed rows only at its own width; a full-precision one at 8 is
// quantized on the fly (the source is unmodified).
func (p *Predictor) WriteOutput(w io.Writer, bits int) error {
	if q := p.fwd.qout; q != nil {
		if q.Bits != bits {
			return fmt.Errorf("network: predictor is quantized int%d, stream wants int%d", q.Bits, bits)
		}
		return q.SerializeView(w)
	}
	if bits == 0 {
		return p.fwd.output.SerializeView(w)
	}
	q, err := quant.QuantizeRowWeights(p.fwd.output, bits)
	if err != nil {
		return err
	}
	return q.SerializeView(w)
}

// HasTables reports whether the predictor carries LSH tables — and thus
// whether WriteTables produces a payload.
func (p *Predictor) HasTables() bool { return p.fwd.smp.sampled() }

// WriteTables encodes the full LSH table state (every set of the sampler,
// back to back).
func (p *Predictor) WriteTables(w io.Writer) error {
	if !p.fwd.smp.sampled() {
		return fmt.Errorf("network: predictor has no LSH tables")
	}
	return p.fwd.smp.serialize(w)
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

// readSampler builds the sampler cfg declares and fills it from a tables
// payload, which must be present exactly when the model is sampled.
func readSampler(cfg *Config, lastDim int, payload []byte) (*sampler, error) {
	sm, err := newSampler(cfg, lastDim)
	if err != nil {
		return nil, err
	}
	if sm.sampled() != (payload != nil) {
		return nil, fmt.Errorf("tables payload presence (%v) disagrees with config sampling (%v)",
			payload != nil, sm.sampled())
	}
	r := bytes.NewReader(payload)
	if err := sm.deserialize(r); err != nil {
		return nil, fmt.Errorf("tables: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("tables: %d bytes after the last table set", r.Len())
	}
	return sm, nil
}

// viewSize returns the encoded size of a weight view — hdr header words, n
// vectors of vecLen elements of elem bytes each, side f32 sidecar values — or
// -1 when that exceeds limit, so that no declared shape overflows the sum.
func viewSize(limit, hdr, n, vecLen, elem, side int) int {
	if n > limit/vecLen || side > limit/4 {
		return -1
	}
	return 4*hdr + n*vecLen*elem + 4*side
}

// checkBaseSizes holds the hidden, middle and output payloads of a base to
// the exact length SerializeView gives the shapes cfg (validated) declares,
// in whichever of the three element codecs each is in: f32, bfloat16 under
// BF16Both, packed int8 with its scales beside the biases.
func checkBaseSizes(cfg *Config, parts *BaseParts) error {
	elem := 4
	if cfg.Precision == layer.BF16Both {
		elem = 2
	}
	hidden := viewSize(len(parts.Hidden), 4, cfg.InputDim, cfg.HiddenDim, elem, cfg.HiddenDim)
	middle, last := 4, cfg.HiddenDim // the layer count leads the stack
	for _, d := range cfg.HiddenLayers {
		sz := viewSize(len(parts.Middle), 3, d, last, 4, d)
		if sz < 0 {
			middle = -1
			break
		}
		middle, last = middle+sz, d
	}
	output := viewSize(len(parts.Output), 3, cfg.OutputDim, last, elem, cfg.OutputDim)
	if parts.QBits != 0 {
		output = viewSize(len(parts.Output), 3, cfg.OutputDim, last, 1, 2*cfg.OutputDim)
	}
	for _, v := range []struct {
		name    string
		payload []byte
		want    int
	}{{"hidden", parts.Hidden, hidden}, {"middle", parts.Middle, middle}, {"output", parts.Output, output}} {
		if len(v.payload) != v.want {
			return fmt.Errorf("%s: payload of %d bytes is not the encoding of the shape the config declares", v.name, len(v.payload))
		}
	}
	return nil
}

// BaseParts carries the decoded (already CRC-verified) payloads of one full
// base snapshot. Tables must be nil exactly when the config disables
// sampling. QBits != 0 declares the Output payload quantized (written by
// WriteOutput at that width): the reconstructed predictor serves from packed
// int rows.
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
	// Every view is read against the shape the config declares: a payload of
	// another length than that shape encodes to, or whose header says
	// otherwise, is refused before anything is allocated for it — neither a
	// crafted header nor a crafted config sizes a weight allocation.
	if err := checkBaseSizes(&cfg, &parts); err != nil {
		return nil, fail("%w", err)
	}
	dims, lastDim, middleAll, all := forwardGeometry(&cfg)

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

	smp, err := readSampler(&cfg, lastDim, parts.Tables)
	if err != nil {
		return nil, fail("%w", err)
	}

	f := &forwardState{
		cfg:       cfg,
		hidden:    hidden,
		middle:    middle,
		output:    output,
		qout:      qout,
		smp:       smp,
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
// quantized (written by Delta.WriteOutput at that width) and must match the
// width the receiving predictor holds.
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
	smp := p.fwd.smp
	if parts.Tables != nil {
		// Into a fresh sampler: the previous predictor's tables stay untouched.
		if smp, err = readSampler(&cfg, p.fwd.lastDim, parts.Tables); err != nil {
			return nil, fmt.Errorf("network: delta: %w", err)
		}
	}
	f := *p.fwd // config, geometry and index lists carry over
	f.hidden, f.middle, f.output, f.qout, f.smp = hidden, middle, output, qout, smp
	np := newPredictor(&f, snapshotSeed(&cfg, parts.ToStep))
	np.steps = parts.ToStep
	return np, nil
}
