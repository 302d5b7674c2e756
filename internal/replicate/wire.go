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
//	section envelope   (fixed-width ids: versions, steps, flags, config CRC)
//	section config     (base only — the checkpoint config payload)
//	section hidden     (base: full view; delta: touched columns + bias)
//	section middle     (dense middle stack, whole either way)
//	section output     (base: full view; delta: touched rows + biases)
//	section tables     (present iff the envelope's hasTables flag is set)
//
// Wire v2 (quantized streams) appends one u64 — qbits — to the envelope
// (base: 40 bytes, delta: 56) and carries the output section in the packed
// quant codec at that width. Everything else is identical; readers accept
// both versions, and f32 streams keep emitting v1 bytes unchanged.
const (
	wireMagic = 0x534C4452 // "SLDR"
	wireV1    = 1          // f32/BF16 output sections
	wireV2    = 2          // quantized output sections (envelope carries qbits)

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

// EncodeBase serializes a full snapshot of p at the given replication
// version into one wire message (v1: the output ships at the predictor's
// training precision).
func EncodeBase(p *network.Predictor, version uint64) ([]byte, error) {
	return encodeBase(p, version, 0)
}

// EncodeBaseQ serializes a base with the output section quantized to qbits
// (8), emitting a v2 message. An already-quantized predictor at the
// same width streams its packed rows directly; an f32 predictor is
// quantized at encode time (and left unmodified).
func EncodeBaseQ(p *network.Predictor, version uint64, qbits int) ([]byte, error) {
	return encodeBase(p, version, qbits)
}

func encodeBase(p *network.Predictor, version uint64, qbits int) ([]byte, error) {
	var buf bytes.Buffer
	writeHeader(&buf, kindBase, qbits)
	sw := network.NewSectionWriter(&buf)
	sw.Section(secEnvelope, "envelope", func(w io.Writer) error {
		env := []uint64{
			version, uint64(p.Steps()), boolU64(p.HasTables()), uint64(p.ConfigChecksum()),
		}
		if qbits != 0 {
			env = append(env, uint64(qbits))
		}
		return binary.Write(w, binary.LittleEndian, env)
	})
	sw.Section(secConfig, "config", p.WriteBaseConfig)
	sw.Section(secHidden, "hidden", p.WriteHidden)
	sw.Section(secMiddle, "middle", p.WriteMiddle)
	if qbits != 0 {
		sw.Section(secOutput, "output", func(w io.Writer) error { return p.WriteOutputQ(w, qbits) })
	} else {
		sw.Section(secOutput, "output", p.WriteOutput)
	}
	if p.HasTables() {
		sw.Section(secTables, "tables", p.WriteTables)
	}
	if err := sw.Err(); err != nil {
		return nil, fmt.Errorf("replicate: encoding base v%d: %w", version, err)
	}
	return buf.Bytes(), nil
}

// EncodeDelta serializes d as the wire message moving fromVersion to
// toVersion (v1: f32 output rows).
func EncodeDelta(d *network.Delta, fromVersion, toVersion uint64) ([]byte, error) {
	return encodeDelta(d, fromVersion, toVersion, 0)
}

// EncodeDeltaQ serializes d with the touched output rows quantized to qbits
// on the fly (v2). Publish cost stays O(touched rows).
func EncodeDeltaQ(d *network.Delta, fromVersion, toVersion uint64, qbits int) ([]byte, error) {
	return encodeDelta(d, fromVersion, toVersion, qbits)
}

func encodeDelta(d *network.Delta, fromVersion, toVersion uint64, qbits int) ([]byte, error) {
	var buf bytes.Buffer
	writeHeader(&buf, kindDelta, qbits)
	sw := network.NewSectionWriter(&buf)
	sw.Section(secEnvelope, "envelope", func(w io.Writer) error {
		env := []uint64{
			fromVersion, toVersion, uint64(d.FromStep), uint64(d.ToStep),
			boolU64(d.TablesChanged), uint64(d.ConfigChecksum()),
		}
		if qbits != 0 {
			env = append(env, uint64(qbits))
		}
		return binary.Write(w, binary.LittleEndian, env)
	})
	sw.Section(secHidden, "hidden", d.WriteHidden)
	sw.Section(secMiddle, "middle", d.WriteMiddle)
	if qbits != 0 {
		sw.Section(secOutput, "output", func(w io.Writer) error { return d.WriteOutputQ(w, qbits) })
	} else {
		sw.Section(secOutput, "output", d.WriteOutput)
	}
	if d.TablesChanged {
		sw.Section(secTables, "tables", d.WriteTables)
	}
	if err := sw.Err(); err != nil {
		return nil, fmt.Errorf("replicate: encoding delta v%d->v%d: %w", fromVersion, toVersion, err)
	}
	return buf.Bytes(), nil
}

func writeHeader(buf *bytes.Buffer, kind uint32, qbits int) {
	ver := uint32(wireV1)
	if qbits != 0 {
		ver = wireV2
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], wireMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ver)
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
	wv := binary.LittleEndian.Uint32(hdr[4:8])
	if wv != wireV1 && wv != wireV2 {
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
		return readBase(next, wv)
	case kindDelta:
		return readDelta(next, wv)
	default:
		return nil, nil, fmt.Errorf("replicate: unknown message kind %d", kind)
	}
}

// envQBits validates and extracts the v2 qbits field appended at env[at:].
func envQBits(env []byte, at int) (int, error) {
	q := binary.LittleEndian.Uint64(env[at : at+8])
	if q != 8 {
		return 0, fmt.Errorf("replicate: envelope declares qbits %d, want 8", q)
	}
	return int(q), nil
}

func readBase(next func(uint32) ([]byte, error), wv uint32) (*Base, *Delta, error) {
	env, err := next(secEnvelope)
	if err != nil {
		return nil, nil, err
	}
	want := 32
	if wv == wireV2 {
		want = 40
	}
	if len(env) != want {
		return nil, nil, fmt.Errorf("replicate: base envelope is %d bytes, want %d", len(env), want)
	}
	b := &Base{
		Version:   binary.LittleEndian.Uint64(env[0:8]),
		Step:      int64(binary.LittleEndian.Uint64(env[8:16])),
		ConfigCRC: uint32(binary.LittleEndian.Uint64(env[24:32])),
	}
	if wv == wireV2 {
		if b.Parts.QBits, err = envQBits(env, 32); err != nil {
			return nil, nil, err
		}
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

func readDelta(next func(uint32) ([]byte, error), wv uint32) (*Base, *Delta, error) {
	env, err := next(secEnvelope)
	if err != nil {
		return nil, nil, err
	}
	want := 48
	if wv == wireV2 {
		want = 56
	}
	if len(env) != want {
		return nil, nil, fmt.Errorf("replicate: delta envelope is %d bytes, want %d", len(env), want)
	}
	d := &Delta{
		FromVersion: binary.LittleEndian.Uint64(env[0:8]),
		ToVersion:   binary.LittleEndian.Uint64(env[8:16]),
		ConfigCRC:   uint32(binary.LittleEndian.Uint64(env[40:48])),
	}
	if wv == wireV2 {
		if d.Parts.QBits, err = envQBits(env, 48); err != nil {
			return nil, nil, err
		}
	}
	d.Parts.FromStep = int64(binary.LittleEndian.Uint64(env[16:24]))
	d.Parts.ToStep = int64(binary.LittleEndian.Uint64(env[24:32]))
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
