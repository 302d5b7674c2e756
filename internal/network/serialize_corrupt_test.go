package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
)

// frame locates one v3 section in a saved checkpoint.
type frame struct {
	id         uint32
	start      int64 // section header offset
	payloadOff int64
	payloadLen int64
	end        int64 // offset just past the CRC trailer
}

// frames parses the v3 framing of a whole checkpoint without loading it.
func frames(t *testing.T, raw []byte) []frame {
	t.Helper()
	fs := wholeFrames(raw)
	if len(fs) == 0 || fs[len(fs)-1].end != int64(len(raw)) {
		t.Fatalf("checkpoint framing ends after %d whole sections, short of its %d bytes", len(fs), len(raw))
	}
	return fs
}

func TestLoadV3SectionOrder(t *testing.T) {
	n, _ := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for _, f := range frames(t, buf.Bytes()) {
		ids = append(ids, f.id)
	}
	want := []uint32{secConfig, secHidden, secMiddle, secOutput, secTables, secRNG}
	if len(ids) != len(want) {
		t.Fatalf("sections %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sections %v, want %v", ids, want)
		}
	}
}

// TestLoadCorruptEverySection flips one payload byte in each section in turn
// and demands a *CorruptError naming exactly that section.
func TestLoadCorruptEverySection(t *testing.T) {
	n, _ := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames(t, buf.Bytes()) {
		name := sectionNames[f.id]
		t.Run(name, func(t *testing.T) {
			if f.payloadLen == 0 {
				t.Skipf("section %s has an empty payload", name)
			}
			raw := bytes.Clone(buf.Bytes())
			raw[f.payloadOff+f.payloadLen/2] ^= 0x20
			_, err := Load(bytes.NewReader(raw), 1)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("bit flip in %s: err %v does not wrap ErrCorruptCheckpoint", name, err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err %T is not a *CorruptError", err)
			}
			if ce.Section != name {
				t.Fatalf("corruption in %s reported against section %s", name, ce.Section)
			}
			if ce.Offset != f.payloadOff {
				t.Fatalf("section %s reported at offset %d, payload is at %d", name, ce.Offset, f.payloadOff)
			}
		})
	}
}

// TestLoadTruncatedEverySection truncates the stream at several points
// inside each section — mid-header, mid-payload, and inside the CRC trailer
// — and demands a typed corruption error naming that section.
func TestLoadTruncatedEverySection(t *testing.T) {
	n, _ := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames(t, buf.Bytes()) {
		name := sectionNames[f.id]
		cuts := []struct {
			where string
			at    int64
		}{
			{"header", f.start + 6},
			{"payload", f.payloadOff + f.payloadLen/2},
			{"trailer", f.end - 2},
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("%s/%s", name, cut.where), func(t *testing.T) {
				_, err := Load(bytes.NewReader(buf.Bytes()[:cut.at]), 1)
				if !errors.Is(err, ErrCorruptCheckpoint) {
					t.Fatalf("truncation in %s %s: err %v does not wrap ErrCorruptCheckpoint", name, cut.where, err)
				}
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Section != name {
					t.Fatalf("truncation in %s reported as %v", name, err)
				}
			})
		}
	}
}

func TestLoadCorruptPreamble(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte{1, 2, 3}), 1)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("short preamble: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "preamble" {
		t.Fatalf("short preamble reported as %v", err)
	}
}

// TestLoadRefusesV2: the unframed version-2 format has no loader any more. Its
// preamble is refused by version number, with an error that does not claim
// the file is corrupt (it may be intact; this build cannot read it).
func TestLoadRefusesV2(t *testing.T) {
	var pre bytes.Buffer
	for _, v := range []uint64{uint64(checkpointMagic), 2} {
		if err := binary.Write(&pre, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Load(&pre, 1)
	if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 2") {
		t.Fatalf("v2 preamble: %v, want an unsupported-version error", err)
	}
	if errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("v2 preamble reported as corruption: %v", err)
	}
}

// benchNet is trainedNet for benchmarks (no *testing.T plumbing).
func benchNet(b *testing.B) *Network {
	b.Helper()
	p := newPlanted(60, 20, 5, 31)
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1,
		Precision: layer.FP32, RebuildEvery: 10, Seed: 77,
	}
	n, err := New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.TrainBatch(p.batch(32))
	}
	return n
}

func BenchmarkCheckpointSaveV3(b *testing.B) {
	n := benchNet(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := n.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkCheckpointLoadV3(b *testing.B) {
	n := benchNet(b)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes()), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadRejectsOutOfRangeTableID: the checksums say a section is the bytes
// that were written, not that they describe a model. A tables section whose
// first stored id lies outside the output layer — with the table's and the
// section's CRC32C recomputed over it, as a buggy or hostile writer would
// leave them — must fail the load as a corrupt tables section wrapping
// lsh.ErrMalformed. It used to load, and the first sampled step then died
// with an index out of range in the worker's dedup array. Sharded
// checkpoints hold each shard's ids to the shard's own rows the same way.
func TestLoadRejectsOutOfRangeTableID(t *testing.T) {
	for name, shards := range map[string]int{"single": 0, "sharded": 2} {
		p := newPlanted(60, 20, 5, 31)
		cfg := Config{
			InputDim: 60, HiddenDim: 16, OutputDim: 20,
			Hash: DWTA, K: 2, L: 8, BucketCap: 32,
			MinActive: 6, LR: 0.01, Workers: 1, Shards: shards,
			RebuildEvery: 10, Seed: 77,
		}
		n, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.TrainBatch(p.batch(32))
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		var sec frame
		for _, f := range frames(t, raw) {
			if f.id == secTables {
				sec = f
			}
		}
		// Payload: 24-byte set header, then table 0 — bucket count, then per
		// bucket a 12-byte header and its ids — then table 0's CRC32C.
		table := raw[sec.payloadOff+24 : sec.payloadOff+sec.payloadLen]
		end := 8
		for k := binary.LittleEndian.Uint64(table); k > 0; k-- {
			end += 12 + 4*int(binary.LittleEndian.Uint32(table[end+8:]))
		}
		for _, bad := range []uint32{1 << 30, uint32(0xfffffffb) /* -5 */, 19 /* in the layer, outside shard 0 */} {
			if bad == 19 && shards == 0 {
				continue
			}
			dmg := bytes.Clone(raw)
			table := dmg[sec.payloadOff+24:]
			binary.LittleEndian.PutUint32(table[8+12:], bad)
			binary.LittleEndian.PutUint32(table[end:], crc32.Checksum(table[:end], castagnoli))
			payload := dmg[sec.payloadOff : sec.payloadOff+sec.payloadLen]
			binary.LittleEndian.PutUint32(dmg[sec.end-4:], crc32.Checksum(payload, castagnoli))

			_, err := Load(bytes.NewReader(dmg), 1)
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != "tables" || !errors.Is(err, lsh.ErrMalformed) {
				t.Errorf("%s: id %d in a re-checksummed tables section: err %v, want a corrupt tables section wrapping lsh.ErrMalformed", name, int32(bad), err)
			}
		}
		if _, err := Load(bytes.NewReader(raw), 1); err != nil {
			t.Errorf("%s: undamaged checkpoint rejected: %v", name, err)
		}
	}
}
