// Package replicate streams sparse model snapshots from a trainer to a
// fleet of serving replicas. The trainer side (Hub) publishes each
// snapshot as either a full base or a sparse delta against the previous
// version — SLIDE's LSH-sampled training touches only the active-set rows
// per step, so steady-state deltas move a small fraction of the model.
// The replica side (Client) bootstraps from a base, follows the delta
// stream by long-polling, applies each delta copy-on-write, and lands
// bit-identical to a trainer-local snapshot at the same version. Any gap,
// checksum failure, or parse error tears nothing: the replica keeps
// serving its current version and re-syncs from a fresh base.
//
// The wire format reuses the checkpoint-v3 section framing
// (network.SectionWriter/SectionReader): every payload is length-bounded
// before allocation and CRC32C-verified before parsing, and damage
// surfaces as the same typed *network.CorruptError checkpoints produce.
package replicate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/slide-cpu/slide/internal/network"
)

// Wire constants. A message is a fixed 12-byte header — magic, wire
// version, message kind — followed by framed sections:
//
//	[magic u32 "SLDR"][wireVersion u32][kind u32]
//	section envelope   (fixed-width ids: versions, steps, flags, config CRC, qbits)
//	section config     (base only — the checkpoint config payload)
//	section hidden     (base: full view; delta: touched columns + bias)
//	section middle     (dense middle stack, whole either way)
//	section output     (base: full view; delta: touched rows + biases)
//	section tables     (present iff the envelope's hasTables flag is set)
//
// The envelope is 40 bytes on a base and 56 on a delta; its last u64, qbits,
// names the output section's codec: 0 the model's own precision (f32 or
// bfloat16), 8 the packed quant codec. Version 2 is the only version: a hub
// and its replicas run the same release.
const (
	wireMagic   = 0x534C4452 // "SLDR"
	wireVersion = 2

	kindBase  = 1
	kindDelta = 2

	secEnvelope = 1
	secConfig   = 2
	secHidden   = 3
	secMiddle   = 4
	secOutput   = 5
	secTables   = 6
)

var sectionNames = map[uint32]string{
	secEnvelope: "envelope",
	secConfig:   "config",
	secHidden:   "hidden",
	secMiddle:   "middle",
	secOutput:   "output",
	secTables:   "tables",
}

// Base is one decoded full-snapshot message.
type Base struct {
	// Version is the hub's replication version of this snapshot.
	Version uint64
	// Step is the trainer's optimizer step count at snapshot time.
	Step int64
	// ConfigCRC fingerprints the model shape (network.ConfigChecksum).
	ConfigCRC uint32
	// Parts holds the CRC-verified payloads for network.NewPredictorFromBase.
	Parts network.BaseParts
}

// Delta is one decoded sparse-delta message.
type Delta struct {
	// FromVersion/ToVersion are the hub replication versions the delta
	// connects; a replica at FromVersion lands exactly at ToVersion.
	FromVersion, ToVersion uint64
	// ConfigCRC must match the replica's predictor fingerprint — a
	// mismatch means the trainer restarted with a different shape.
	ConfigCRC uint32
	// Parts holds the CRC-verified payloads for Predictor.ApplyDelta.
	Parts network.DeltaParts
}

// EncodeBaseQ serializes a full snapshot of p at the given replication
// version into one wire message with the output section at qbits: 0 ships
// the predictor's training precision, 8 the packed rows. An
// already-quantized predictor streams its packed rows at its own width only;
// an f32 predictor is quantized at encode time (and left unmodified).
func EncodeBaseQ(p *network.Predictor, version uint64, qbits int) ([]byte, error) {
	var buf bytes.Buffer
	writeHeader(&buf, kindBase)
	sw := network.NewSectionBuffer(&buf)
	sw.Section(secEnvelope, "envelope", func(w io.Writer) error {
		return binary.Write(w, binary.LittleEndian, []uint64{
			version, uint64(p.Steps()), boolU64(p.HasTables()), uint64(p.ConfigChecksum()), uint64(qbits),
		})
	})
	sw.Section(secConfig, "config", p.WriteBaseConfig)
	sw.Section(secHidden, "hidden", p.WriteHidden)
	sw.Section(secMiddle, "middle", p.WriteMiddle)
	sw.Section(secOutput, "output", func(w io.Writer) error { return p.WriteOutput(w, qbits) })
	if p.HasTables() {
		sw.Section(secTables, "tables", p.WriteTables)
	}
	if err := sw.Err(); err != nil {
		return nil, fmt.Errorf("replicate: encoding base v%d: %w", version, err)
	}
	return buf.Bytes(), nil
}

// EncodeDeltaQ serializes d as the wire message moving fromVersion to
// toVersion, with the touched output rows at qbits: 0 ships them at the
// training precision, 8 quantizes them on the fly. Publish cost stays
// O(touched rows).
func EncodeDeltaQ(d *network.Delta, fromVersion, toVersion uint64, qbits int) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeDelta(&buf, d, fromVersion, toVersion, qbits); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeDelta frames EncodeDeltaQ's message onto the end of buf.
func encodeDelta(buf *bytes.Buffer, d *network.Delta, fromVersion, toVersion uint64, qbits int) error {
	writeHeader(buf, kindDelta)
	sw := network.NewSectionBuffer(buf)
	sw.Section(secEnvelope, "envelope", func(w io.Writer) error {
		return binary.Write(w, binary.LittleEndian, []uint64{
			fromVersion, toVersion, uint64(d.FromStep), uint64(d.ToStep),
			boolU64(d.TablesChanged), uint64(d.ConfigChecksum()), uint64(qbits),
		})
	})
	sw.Section(secHidden, "hidden", d.WriteHidden)
	sw.Section(secMiddle, "middle", d.WriteMiddle)
	sw.Section(secOutput, "output", func(w io.Writer) error { return d.WriteOutput(w, qbits) })
	if d.TablesChanged {
		sw.Section(secTables, "tables", d.WriteTables)
	}
	if err := sw.Err(); err != nil {
		return fmt.Errorf("replicate: encoding delta v%d->v%d: %w", fromVersion, toVersion, err)
	}
	return nil
}

func writeHeader(buf *bytes.Buffer, kind uint32) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], wireMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], wireVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], kind)
	buf.Write(hdr[:])
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ReadMessage decodes the next message from r. Exactly one of the returns
// is non-nil on success; a clean end of stream returns (nil, nil, io.EOF).
// Any other failure — bad magic, truncation, CRC mismatch, malformed
// envelope — is an error the caller should treat as stream corruption.
func ReadMessage(r io.Reader) (*Base, *Delta, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("replicate: truncated message header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != wireMagic {
		return nil, nil, fmt.Errorf("replicate: bad magic %#x", m)
	}
	if wv := binary.LittleEndian.Uint32(hdr[4:8]); wv != wireVersion {
		return nil, nil, fmt.Errorf("replicate: unsupported wire version %d", wv)
	}
	kind := binary.LittleEndian.Uint32(hdr[8:12])
	sr := network.NewSectionReader(r, int64(len(hdr)))
	next := func(id uint32) ([]byte, error) {
		payload, _, err := sr.Next(id, sectionNames[id])
		return payload, err
	}
	switch kind {
	case kindBase:
		return readBase(next)
	case kindDelta:
		return readDelta(next)
	default:
		return nil, nil, fmt.Errorf("replicate: unknown message kind %d", kind)
	}
}

// envelope reads the envelope section, which must be want bytes, and its
// last word, qbits.
func envelope(next func(uint32) ([]byte, error), kind string, want int) ([]byte, int, error) {
	env, err := next(secEnvelope)
	if err != nil {
		return nil, 0, err
	}
	if len(env) != want {
		return nil, 0, fmt.Errorf("replicate: %s envelope is %d bytes, want %d", kind, len(env), want)
	}
	q := binary.LittleEndian.Uint64(env[want-8:])
	if q != 0 && q != 8 {
		return nil, 0, fmt.Errorf("replicate: envelope declares qbits %d, want 0 or 8", q)
	}
	return env, int(q), nil
}

func readBase(next func(uint32) ([]byte, error)) (*Base, *Delta, error) {
	env, qbits, err := envelope(next, "base", 40)
	if err != nil {
		return nil, nil, err
	}
	b := &Base{
		Version:   binary.LittleEndian.Uint64(env[0:8]),
		Step:      int64(binary.LittleEndian.Uint64(env[8:16])),
		ConfigCRC: uint32(binary.LittleEndian.Uint64(env[24:32])),
		Parts:     network.BaseParts{QBits: qbits},
	}
	hasTables := binary.LittleEndian.Uint64(env[16:24]) != 0
	if b.Parts.Config, err = next(secConfig); err != nil {
		return nil, nil, err
	}
	if b.Parts.Hidden, err = next(secHidden); err != nil {
		return nil, nil, err
	}
	if b.Parts.Middle, err = next(secMiddle); err != nil {
		return nil, nil, err
	}
	if b.Parts.Output, err = next(secOutput); err != nil {
		return nil, nil, err
	}
	if hasTables {
		if b.Parts.Tables, err = next(secTables); err != nil {
			return nil, nil, err
		}
	}
	return b, nil, nil
}

func readDelta(next func(uint32) ([]byte, error)) (*Base, *Delta, error) {
	env, qbits, err := envelope(next, "delta", 56)
	if err != nil {
		return nil, nil, err
	}
	d := &Delta{
		FromVersion: binary.LittleEndian.Uint64(env[0:8]),
		ToVersion:   binary.LittleEndian.Uint64(env[8:16]),
		ConfigCRC:   uint32(binary.LittleEndian.Uint64(env[40:48])),
		Parts: network.DeltaParts{
			FromStep: int64(binary.LittleEndian.Uint64(env[16:24])),
			ToStep:   int64(binary.LittleEndian.Uint64(env[24:32])),
			QBits:    qbits,
		},
	}
	hasTables := binary.LittleEndian.Uint64(env[32:40]) != 0
	if d.Parts.Hidden, err = next(secHidden); err != nil {
		return nil, nil, err
	}
	if d.Parts.Middle, err = next(secMiddle); err != nil {
		return nil, nil, err
	}
	if d.Parts.Output, err = next(secOutput); err != nil {
		return nil, nil, err
	}
	if hasTables {
		if d.Parts.Tables, err = next(secTables); err != nil {
			return nil, nil, err
		}
	}
	return nil, d, nil
}
