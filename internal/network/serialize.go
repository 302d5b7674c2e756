package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
)

func layerActivation(v uint64) layer.Activation { return layer.Activation(v) }
func layerPrecision(v uint64) layer.Precision   { return layer.Precision(v) }
func layerPlacement(v uint64) layer.Placement   { return layer.Placement(v) }
func lshPolicy(v uint64) lsh.BucketPolicy       { return lsh.BucketPolicy(v) }

// Checkpoint format, version 3: a self-identifying preamble (magic +
// version) followed by framed sections, each
//
//	[id uint32][length uint64][payload][crc32c(payload) uint32]
//
// in fixed order: config, hidden layer, middle layers, output layer, hash
// tables (LSH-sampled networks only — presence is derived from the config,
// so the stream needs no lookahead), worker RNG states. The CRC32C trailer
// is verified *before* a section is parsed, so a truncated or bit-flipped
// checkpoint is reported as a typed *CorruptError naming the section and
// byte offset instead of surfacing as a garbage-shaped parse failure — and
// recovery code (train's last-good checkpoint ring) can distinguish
// corruption, which falling back cures, from honest version or shape
// mismatches, which it cannot.
//
// Tables are persisted — not rebuilt from the loaded weights — because
// their contents are a function of the weights at the *last scheduled
// rebuild*, not the current ones; restoring them exactly is what makes a
// resumed session bit-identical to an uninterrupted run. Any other format
// version is refused by number (DESIGN.md "Failure model & recovery" has the
// migration note for version-2 files).

const (
	checkpointMagic   = uint32(0x534C4944) // "SLID"
	checkpointVersion = uint32(3)

	// maxSectionBytes bounds a declared section length before allocation: a
	// corrupt length field must produce a typed error, not an OOM.
	maxSectionBytes = uint64(1) << 32
)

// Section ids, in stream order.
const (
	secConfig uint32 = iota + 1
	secHidden
	secMiddle
	secOutput
	secTables
	secRNG
)

var sectionNames = map[uint32]string{
	secConfig: "config",
	secHidden: "hidden",
	secMiddle: "middle",
	secOutput: "output",
	secTables: "tables",
	secRNG:    "rng",
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWorkersMismatch is wrapped by Load when the caller asks for a worker
// count other than the one an un-sharded (HOGWILD) checkpoint recorded. The
// HOGWILD engine's bytes — per-worker RNG sections, sample striping,
// accumulation order, the worker-ordered BatchStats fold — depend on the
// count, so resuming at another one would silently stop being the run that
// was interrupted. Pass 0 to adopt the recorded count.
var ErrWorkersMismatch = errors.New("network: checkpoint worker count mismatch")

// ErrCorruptCheckpoint is the sentinel wrapped by every corruption-shaped
// load failure: checksum mismatch, truncation, or a structurally impossible
// field. errors.Is(err, ErrCorruptCheckpoint) distinguishes "this file is
// damaged — fall back to an older checkpoint" from configuration or version
// errors that no fallback will fix.
var ErrCorruptCheckpoint = errors.New("network: corrupt checkpoint")

// CorruptError reports where a checkpoint is damaged: the section whose
// verification or read failed and the byte offset of that section's payload
// in the stream.
type CorruptError struct {
	// Section names the damaged section (config, hidden, middle, output,
	// tables, rng — or "preamble" for the magic/version header).
	Section string
	// Offset is the byte offset of the section payload within the
	// checkpoint stream.
	Offset int64
	// Err is the underlying detail (checksum mismatch, truncation, …).
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("network: corrupt checkpoint: section %s at offset %d: %v", e.Section, e.Offset, e.Err)
}

// Unwrap exposes both the sentinel and the underlying cause to errors.Is/As.
func (e *CorruptError) Unwrap() []error { return []error{ErrCorruptCheckpoint, e.Err} }

func corrupt(section string, offset int64, format string, args ...any) error {
	return &CorruptError{Section: section, Offset: offset, Err: fmt.Errorf(format, args...)}
}

// Save writes a version-3 checkpoint of the network: configuration,
// optimizer step, weights, biases, ADAM moments, LSH bucket state, and
// worker RNG states, each in a CRC32C-verified section. Do not call
// concurrently with TrainBatch.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, v := range []uint64{uint64(checkpointMagic), uint64(checkpointVersion)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("network: writing checkpoint preamble: %w", err)
		}
	}
	sw := NewSectionWriter(bw)
	sw.Section(secConfig, sectionNames[secConfig], n.writeConfig)
	sw.Section(secHidden, sectionNames[secHidden], n.hidden.Serialize)
	sw.Section(secMiddle, sectionNames[secMiddle], func(w io.Writer) error {
		for i, ml := range n.middle {
			if err := ml.Serialize(w); err != nil {
				return fmt.Errorf("hidden layer %d: %w", i+1, err)
			}
		}
		return nil
	})
	sw.Section(secOutput, sectionNames[secOutput], n.output.Serialize)
	if n.smp.sampled() {
		sw.Section(secTables, sectionNames[secTables], n.smp.serialize)
	}
	sw.Section(secRNG, sectionNames[secRNG], n.writeRNG)
	if err := sw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// writeConfig emits the config payload: the fixed uint64 fields, the float64
// fields, and the middle-stack shape.
func (n *Network) writeConfig(w io.Writer) error {
	workers := n.cfg.Workers
	if n.sh != nil {
		// Sharded checkpoints are bit-identical at any worker count, so the
		// count is not theirs to record.
		workers = 0
	}
	return writeConfigPayload(w, &n.cfg, n.step, n.sinceRebuild, n.rebuildPeriod, workers)
}

// writeConfigPayload is the config payload serializer shared by checkpoints
// (full training state) and replication base snapshots (which carry no
// rebuild-schedule position and no worker count — they pass zeros).
func writeConfigPayload(w io.Writer, cfg *Config, step int64, sinceRebuild int, rebuildPeriod float64, workers int) error {
	hdr := []uint64{
		uint64(cfg.InputDim), uint64(cfg.HiddenDim), uint64(cfg.OutputDim),
		uint64(cfg.HiddenActivation), uint64(cfg.Hash),
		uint64(cfg.K), uint64(cfg.L), uint64(cfg.BinSize),
		uint64(cfg.BucketCap), uint64(cfg.BucketPolicy),
		uint64(cfg.MinActive), uint64(cfg.MaxActive),
		boolU64(cfg.NoSampling), boolU64(cfg.UniformSampling),
		uint64(cfg.Precision), uint64(cfg.Placement),
		boolU64(cfg.Locked),
		uint64(cfg.RebuildEvery), uint64(cfg.Seed),
		uint64(step), uint64(sinceRebuild),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, f := range []float64{cfg.LR, cfg.Beta1, cfg.Beta2, cfg.Eps, cfg.RebuildGrowth, rebuildPeriod} {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(cfg.HiddenLayers))); err != nil {
		return err
	}
	for _, d := range cfg.HiddenLayers {
		if err := binary.Write(w, binary.LittleEndian, uint64(d)); err != nil {
			return err
		}
	}
	// Shards trails the original payload so pre-sharding checkpoints (which
	// simply end here) keep loading: the reader treats EOF as Shards=0.
	if err := binary.Write(w, binary.LittleEndian, uint64(cfg.Shards)); err != nil {
		return err
	}
	// Workers trails Shards the same way: a payload that ends here (older
	// files, sharded checkpoints, replication bases) reads as 0 = unknown.
	if workers <= 0 {
		return nil
	}
	return binary.Write(w, binary.LittleEndian, uint64(workers))
}

// writeRNG emits the random top-up RNG states: without them a resumed run
// draws a different top-up sequence and diverges from the uninterrupted one.
func (n *Network) writeRNG(w io.Writer) error {
	srcs := n.rngSources()
	if err := binary.Write(w, binary.LittleEndian, uint64(len(srcs))); err != nil {
		return err
	}
	for _, src := range srcs {
		state, err := src.MarshalBinary()
		if err != nil {
			return fmt.Errorf("marshaling RNG state: %w", err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(state))); err != nil {
			return err
		}
		if _, err := w.Write(state); err != nil {
			return err
		}
	}
	return nil
}

// rngSources lists the top-up streams in checkpoint order, which is where the
// engines differ in what they own. The phase engine draws per shard — a model
// property, so the section is identical for any worker count and loads
// exactly at a different one. HOGWILD draws per worker: only a load at the
// same count resumes exactly (its sample striping changes with the count
// anyway); at another, the overlapping workers restore and the rest keep
// their fresh seeds.
func (n *Network) rngSources() []*rand.PCG {
	if n.sh != nil {
		return n.sh.rngSrcs
	}
	srcs := make([]*rand.PCG, len(n.workers))
	for w, ws := range n.workers {
		srcs[w] = ws.rngSrc
	}
	return srcs
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Load reads a checkpoint written by Save and reconstructs the network,
// restoring the exact LSH table bucket state the checkpoint carried (the
// tables as of the last scheduled rebuild — rebuilding from the restored
// weights instead would diverge from an uninterrupted run; see the format
// comment above). Sections are checksum-verified before parsing, and a
// verified section must be exactly what Save writes — no bytes after its
// content, one RNG state per stream; damage is reported as a *CorruptError
// wrapping ErrCorruptCheckpoint. Any other format
// version is an "unsupported checkpoint version" error that does not wrap
// ErrCorruptCheckpoint: the file may be intact, this build cannot read it.
//
// workers == 0 adopts the worker count the checkpoint recorded (GOMAXPROCS
// when it recorded none: sharded checkpoints, whose bytes do not depend on
// the count, and files older than the field). workers > 0 sets the count,
// and is refused with ErrWorkersMismatch when an un-sharded checkpoint
// recorded a different one.
func Load(r io.Reader, workers int) (*Network, error) {
	// A reader that knows what it has left is read directly, so that the
	// section reader can hold a declared length to it before allocating.
	br := r
	if _, inMemory := r.(interface{ Len() int }); !inMemory {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var pre [2]uint64
	for i := range pre {
		if err := binary.Read(br, binary.LittleEndian, &pre[i]); err != nil {
			return nil, corrupt("preamble", 0, "reading checkpoint preamble: %w", err)
		}
	}
	if uint32(pre[0]) != checkpointMagic {
		return nil, fmt.Errorf("network: not a SLIDE checkpoint (magic %#x)", pre[0])
	}
	if uint32(pre[1]) != checkpointVersion {
		return nil, fmt.Errorf("network: unsupported checkpoint version %d", pre[1])
	}
	sr := NewSectionReader(br, 16) // past the preamble
	next := func(wantID uint32) ([]byte, int64, error) {
		return sr.Next(wantID, sectionNames[wantID])
	}

	cfgPayload, cfgOff, err := next(secConfig)
	if err != nil {
		return nil, err
	}
	n, recorded, err := readConfig(bytes.NewReader(cfgPayload), workers, cfgOff)
	if err != nil {
		return nil, err
	}
	type section struct {
		id    uint32
		parse func(io.Reader) error
	}
	secs := []section{
		{secHidden, n.hidden.Deserialize},
		{secMiddle, func(r io.Reader) error {
			for i, ml := range n.middle {
				if err := ml.Deserialize(r); err != nil {
					return fmt.Errorf("hidden layer %d: %w", i+1, err)
				}
			}
			return nil
		}},
		{secOutput, n.output.Deserialize},
	}
	if n.smp.sampled() {
		secs = append(secs, section{secTables, n.smp.deserialize})
	}
	// A checkpoint that recorded its worker count, or whose streams do not
	// depend on one, holds exactly the model's RNG states.
	secs = append(secs, section{secRNG, func(r io.Reader) error { return n.readRNG(r, recorded > 0 || n.cfg.Shards > 0) }})
	for _, sec := range secs {
		payload, off, err := next(sec.id)
		if err != nil {
			return nil, err
		}
		rest := bytes.NewReader(payload)
		err = sec.parse(rest)
		if err == nil && rest.Len() > 0 {
			err = fmt.Errorf("%d bytes after the section's content", rest.Len())
		}
		if err != nil {
			// The checksum passed, so the bytes are what Save wrote — a parse
			// failure here is a shape mismatch, but one the checksum says was
			// written that way: report it as corruption with location.
			return nil, corrupt(sectionNames[sec.id], off, "parsing verified section: %w", err)
		}
	}
	return n, nil
}

// readConfig parses the config payload (see writeConfig) and constructs the
// network — with empty tables: Load fills them from the tables section, so
// hashing the freshly initialised weights first would be thrown away —
// restoring step, rebuild-schedule position and rebuild period. It also
// returns the worker count the payload recorded (0 = none). off is the config
// section's stream offset, for corruption reports.
func readConfig(r io.Reader, workers int, off int64) (*Network, int, error) {
	fail := func(format string, args ...any) error { return corrupt("config", off, format, args...) }
	cfg, step, sinceRebuild, rebuildPeriod, err := parseConfigPayload(r, fail)
	if err != nil {
		return nil, 0, err
	}
	recorded := cfg.Workers
	if workers > 0 {
		if recorded > 0 && recorded != workers && cfg.Shards == 0 {
			return nil, 0, fmt.Errorf("%w: checkpoint was written at %d workers, load asked for %d",
				ErrWorkersMismatch, recorded, workers)
		}
		cfg.Workers = workers
	}
	n, err := build(&cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("network: checkpoint config invalid: %w", err)
	}
	n.step = step
	n.sinceRebuild = sinceRebuild
	n.rebuildPeriod = rebuildPeriod
	return n, recorded, nil
}

// parseConfigPayload reads the payload written by writeConfigPayload, which
// must be all r holds: the optional fields appended after the original
// payload (Shards, then Workers) are read until EOF. fail wraps field-level
// read failures with the caller's error shape.
func parseConfigPayload(r io.Reader, fail func(format string, args ...any) error) (Config, int64, int, float64, error) {
	hdr := make([]uint64, 21)
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return Config{}, 0, 0, 0, fail("reading config field %d: %w", i, err)
		}
	}
	fs := make([]float64, 6)
	for i := range fs {
		if err := binary.Read(r, binary.LittleEndian, &fs[i]); err != nil {
			return Config{}, 0, 0, 0, fail("reading config float %d: %w", i, err)
		}
	}
	var nMiddle uint64
	if err := binary.Read(r, binary.LittleEndian, &nMiddle); err != nil {
		return Config{}, 0, 0, 0, fail("reading middle-stack size: %w", err)
	}
	if nMiddle > 64 {
		return Config{}, 0, 0, 0, fail("checkpoint declares %d hidden layers", nMiddle)
	}
	middleDims := make([]int, nMiddle)
	for i := range middleDims {
		var d uint64
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return Config{}, 0, 0, 0, fail("reading middle dims: %w", err)
		}
		middleDims[i] = int(d)
	}
	cfg := Config{
		HiddenLayers:     middleDims,
		InputDim:         int(hdr[0]),
		HiddenDim:        int(hdr[1]),
		OutputDim:        int(hdr[2]),
		HiddenActivation: layerActivation(hdr[3]),
		Hash:             HashFamily(hdr[4]),
		K:                int(hdr[5]),
		L:                int(hdr[6]),
		BinSize:          int(hdr[7]),
		BucketCap:        int(hdr[8]),
		BucketPolicy:     lshPolicy(hdr[9]),
		MinActive:        int(hdr[10]),
		MaxActive:        int(hdr[11]),
		NoSampling:       hdr[12] != 0,
		UniformSampling:  hdr[13] != 0,
		Precision:        layerPrecision(hdr[14]),
		Placement:        layerPlacement(hdr[15]),
		Locked:           hdr[16] != 0,
		RebuildEvery:     int(hdr[17]),
		Seed:             hdr[18],
		LR:               fs[0],
		Beta1:            fs[1],
		Beta2:            fs[2],
		Eps:              fs[3],
		RebuildGrowth:    fs[4],
	}
	// Each trailing field may be absent (the payload predates it, or the
	// writer had nothing to record); the first EOF ends the list.
	for _, f := range []struct {
		name string
		dst  *int
	}{{"shard count", &cfg.Shards}, {"worker count", &cfg.Workers}} {
		var v uint64
		err := binary.Read(r, binary.LittleEndian, &v)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Config{}, 0, 0, 0, fail("reading %s: %w", f.name, err)
		}
		if v > 1<<20 {
			return Config{}, 0, 0, 0, fail("checkpoint declares a %s of %d", f.name, v)
		}
		*f.dst = int(v)
	}
	return cfg, int64(hdr[19]), int(hdr[20]), fs[5], nil
}

// readRNG restores the RNG states into the network's streams (rngSources).
// exact demands one state per stream; otherwise (an un-sharded file from
// before the config recorded a worker count, loaded at whatever count the
// caller runs) states beyond the streams are read and dropped and streams
// beyond the states keep their seeds.
func (n *Network) readRNG(r io.Reader, exact bool) error {
	srcs := n.rngSources()
	var nRNG uint64
	if err := binary.Read(r, binary.LittleEndian, &nRNG); err != nil {
		return fmt.Errorf("reading RNG states: %w", err)
	}
	if nRNG > 1<<20 || (exact && nRNG != uint64(len(srcs))) {
		return fmt.Errorf("checkpoint declares %d RNG states, the model has %d streams", nRNG, len(srcs))
	}
	for i := uint64(0); i < nRNG; i++ {
		var sz uint32
		if err := binary.Read(r, binary.LittleEndian, &sz); err != nil {
			return fmt.Errorf("reading RNG states: %w", err)
		}
		if sz > 4096 {
			return fmt.Errorf("RNG state of %d bytes", sz)
		}
		state := make([]byte, sz)
		if _, err := io.ReadFull(r, state); err != nil {
			return fmt.Errorf("reading RNG states: %w", err)
		}
		if i < uint64(len(srcs)) {
			if err := srcs[i].UnmarshalBinary(state); err != nil {
				return fmt.Errorf("restoring RNG state %d: %w", i, err)
			}
		}
	}
	return nil
}
