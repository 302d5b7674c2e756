package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/lsh"
	"github.com/slide-cpu/slide/internal/platform"
)

// wholeFrames walks the v3 framing of raw after its preamble and returns the
// sections that are present in full, stopping at the first that is not.
func wholeFrames(raw []byte) []frame {
	var fs []frame
	for off := int64(16); off+16 <= int64(len(raw)); {
		length := binary.LittleEndian.Uint64(raw[off+4:])
		if length > uint64(int64(len(raw))-off-16) {
			break
		}
		f := frame{id: binary.LittleEndian.Uint32(raw[off:]), start: off, payloadOff: off + 12, payloadLen: int64(length)}
		f.end = f.payloadOff + f.payloadLen + 4
		fs = append(fs, f)
		off = f.end
	}
	return fs
}

func (f frame) payload(raw []byte) []byte { return raw[f.payloadOff : f.payloadOff+f.payloadLen] }

// restampCheckpoint recomputes the CRC32C trailer of every whole section of
// raw in place, so a mutation inside a payload reaches the parser behind it.
func restampCheckpoint(raw []byte) []byte {
	for _, f := range wholeFrames(raw) {
		binary.LittleEndian.PutUint32(raw[f.end-4:], crc32.Checksum(f.payload(raw), castagnoli))
	}
	return raw
}

// withSection returns a copy of raw with the payload of section id replaced
// and the frame rewritten around it.
func withSection(raw []byte, id uint32, payload []byte) []byte {
	out := bytes.Clone(raw[:16])
	for _, f := range wholeFrames(raw) {
		if f.id != id {
			out = append(out, raw[f.start:f.end]...)
			continue
		}
		out = binary.LittleEndian.AppendUint64(append(out, raw[f.start:f.start+4]...), uint64(len(payload)))
		out = append(append(out, payload...), 0, 0, 0, 0)
	}
	return restampCheckpoint(out)
}

// section returns the payload of raw's section id.
func section(t testing.TB, raw []byte, id uint32) []byte {
	for _, f := range wholeFrames(raw) {
		if f.id == id {
			return f.payload(raw)
		}
	}
	t.Fatalf("checkpoint has no %s section", sectionNames[id])
	return nil
}

// withRetiredWord returns a copy of the checkpoint raw with config word 16 set
// to 1: the word once held a gradient locking flag, and files written while
// it existed may have it set.
func withRetiredWord(t testing.TB, raw []byte) []byte {
	cfg := bytes.Clone(section(t, raw, secConfig))
	binary.LittleEndian.PutUint64(cfg[16*8:], 1)
	return withSection(raw, secConfig, cfg)
}

// preSentinel re-frames a one-set tables payload in the layout TableSet
// writers used before the checksummed one: a plain table count, then the
// table payloads without their CRC trailers.
func preSentinel(set []byte) []byte {
	le := binary.LittleEndian
	n := le.Uint64(set[16:])
	out := le.AppendUint64(nil, n)
	for at := 24; n > 0; n-- {
		end := at + 8
		for k := le.Uint64(set[at:]); k > 0; k-- {
			end += 12 + 4*int(le.Uint32(set[end+8:]))
		}
		out = append(out, set[at:end]...)
		at = end + 4
	}
	return out
}

// fuzzNet trains the fixture model — one geometry, which mod may shard,
// unsample or narrow to BF16 — past its first scheduled rebuild, with delta
// tracking on so the caller can also take snapshots of it.
func fuzzNet(t testing.TB, mod func(*Config)) (*Network, *plantedProblem) {
	cfg := Config{InputDim: 60, HiddenDim: 16, HiddenLayers: []int{12}, OutputDim: 40,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32, MinActive: 8, LR: 0.01, Workers: 1, RebuildEvery: 5, Seed: 501}
	mod(&cfg)
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableDeltaTracking()
	p := newPlanted(cfg.InputDim, cfg.OutputDim, 5, 11)
	for range 7 {
		n.TrainBatch(p.batch(16))
	}
	return n, p
}

func saved(t testing.TB, n *Network) []byte {
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPreSentinelTablesRefused: a table-set payload in the unchecksummed
// pre-sentinel layout is malformed wherever a model takes tables from bytes —
// a checkpoint, a replication base, a delta.
func TestPreSentinelTablesRefused(t *testing.T) {
	n, p := fuzzNet(t, func(*Config) {})
	p7, _ := n.SnapshotDelta()
	for range 5 {
		n.TrainBatch(p.batch(16)) // a scheduled rebuild falls in the interval
	}
	_, d := n.SnapshotDelta()
	base, delta := encodeBaseParts(t, p7), encodeDeltaParts(t, d)
	if delta.Tables == nil {
		t.Fatal("the delta carries no tables")
	}
	replica, err := NewPredictorFromBase(base)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := saved(t, n)
	_, err = Load(bytes.NewReader(withSection(ckpt, secTables, preSentinel(section(t, ckpt, secTables)))), 0)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "tables" || !errors.Is(err, lsh.ErrMalformed) {
		t.Errorf("Load: err %v, want a corrupt tables section wrapping lsh.ErrMalformed", err)
	}
	base.Tables = preSentinel(base.Tables)
	if _, err := NewPredictorFromBase(base); !errors.Is(err, lsh.ErrMalformed) {
		t.Errorf("NewPredictorFromBase: err %v, want one wrapping lsh.ErrMalformed", err)
	}
	delta.Tables = preSentinel(delta.Tables)
	if _, err := replica.ApplyDelta(delta); !errors.Is(err, lsh.ErrMalformed) {
		t.Errorf("ApplyDelta: err %v, want one wrapping lsh.ErrMalformed", err)
	}
}

// FuzzLoad feeds arbitrary bytes to the checkpoint reader. Load answers with
// an error of a known shape — a *CorruptError, or a refusal of the magic, the
// version or the config — or with a network that (a) saves to the bytes it
// was loaded from, section for section (the config section, which Validate
// normalises and whose trailing fields are optional, is held to a fixed point
// of load+save instead), (b) trains a step and (c) answers an exact and a
// sampled query. Nothing panics, and no input makes Load allocate more than
// the fixture model plus a fixed multiple of the input's length. With stamp
// set the section checksums are recomputed first, so mutations reach the
// parsers instead of dying on the CRC. Load builds the network its config
// section declares before it reads a weight, so configs declaring another
// geometry than the fixtures' are skipped.
func FuzzLoad(f *testing.F) {
	ckpts := map[string][]byte{}
	for _, fx := range []struct {
		name string
		mod  func(*Config)
	}{
		{"shards0", func(*Config) {}},
		{"shards1", func(c *Config) { c.Shards = 1 }},
		{"shards4", func(c *Config) { c.Shards = 4 }},
		{"uniform", func(c *Config) { c.UniformSampling = true }},
		{"bf16", func(c *Config) { c.Precision = layer.BF16Both }},
		{"bf16s4", func(c *Config) { c.Precision = layer.BF16Both; c.Shards = 4 }},
	} {
		n, _ := fuzzNet(f, fx.mod)
		ckpts[fx.name] = saved(f, n)
		f.Add(ckpts[fx.name], false)
	}
	s0 := ckpts["shards0"]
	// Every section truncated, one bit flipped in every section, and the flip
	// with the checksum recomputed over it.
	for _, raw := range [][]byte{s0, ckpts["bf16s4"]} {
		for _, fr := range wholeFrames(raw) {
			f.Add(raw[:fr.payloadOff+fr.payloadLen/2], false)
			flipped := bytes.Clone(raw)
			flipped[fr.payloadOff+fr.payloadLen/2] ^= 0x10
			f.Add(flipped, false)
			f.Add(bytes.Clone(flipped), true)
		}
	}
	// A section declaring 2 GiB it does not have.
	huge := bytes.Clone(s0[:28])
	binary.LittleEndian.PutUint64(huge[20:], 1<<31)
	f.Add(huge, false)
	// Bytes after a section's content, under a valid checksum.
	for _, id := range []uint32{secConfig, secHidden, secMiddle, secOutput, secTables, secRNG} {
		f.Add(withSection(s0, id, append(bytes.Clone(section(f, s0, id)), 1, 2, 3, 4, 5, 6, 7, 8)), false)
	}
	// One RNG state more and one fewer than the model has streams.
	rng := section(f, s0, secRNG)
	f.Add(withSection(s0, secRNG, append(binary.LittleEndian.AppendUint64(nil, 2), append(bytes.Clone(rng[8:]), rng[8:]...)...)), false)
	f.Add(withSection(s0, secRNG, binary.LittleEndian.AppendUint64(nil, 0)), false)
	// The same with no recorded worker count (the config's last word cut
	// off), as files written before the field look: tolerated.
	old := withSection(s0, secConfig, section(f, s0, secConfig)[:len(section(f, s0, secConfig))-8])
	f.Add(old, false)
	f.Add(withSection(old, secRNG, binary.LittleEndian.AppendUint64(nil, 0)), false)
	// Tables in the pre-sentinel layout, and another shard count's.
	f.Add(withSection(s0, secTables, preSentinel(section(f, s0, secTables))), false)
	f.Add(withSection(ckpts["shards4"], secTables, section(f, ckpts["shards1"], secTables)), false)
	// The retired config word set.
	f.Add(withRetiredWord(f, s0), false)

	fail := func(format string, args ...any) error { return fmt.Errorf(format, args...) }
	ref, _, _, _, err := parseConfigPayload(bytes.NewReader(section(f, s0, secConfig)), fail)
	if err != nil {
		f.Fatal(err)
	}
	fixtureGeometry := func(c Config) bool {
		return c.InputDim == ref.InputDim && c.HiddenDim == ref.HiddenDim && c.OutputDim == ref.OutputDim &&
			len(c.HiddenLayers) == 1 && c.HiddenLayers[0] == ref.HiddenLayers[0] &&
			c.Hash == ref.Hash && c.K == ref.K && c.L == ref.L && c.BinSize == ref.BinSize && c.BucketCap == ref.BucketCap &&
			c.Shards <= 4 && c.Workers <= 4
	}
	p := newPlanted(ref.InputDim, ref.OutputDim, 5, 17)
	batch := p.batch(8)
	probe := batch.Sample(0)

	f.Fuzz(func(t *testing.T, data []byte, stamp bool) {
		if stamp {
			data = restampCheckpoint(bytes.Clone(data))
		}
		fs := wholeFrames(data)
		var declared Config // what the config section says, when it parses
		if len(fs) > 0 && fs[0].id == secConfig {
			if c, _, _, _, err := parseConfigPayload(bytes.NewReader(fs[0].payload(data)), fail); err == nil {
				if !fixtureGeometry(c) {
					t.Skip("another geometry")
				}
				declared = c
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := Load(bytes.NewReader(data), 0)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4<<20); got > limit {
			t.Fatalf("%d input bytes made Load allocate %d", len(data), got)
		}
		if err != nil {
			var ce *CorruptError
			if msg := err.Error(); !errors.As(err, &ce) && !strings.HasPrefix(msg, "network: not a SLIDE checkpoint") &&
				!strings.HasPrefix(msg, "network: unsupported checkpoint version") && !strings.HasPrefix(msg, "network: checkpoint config invalid") {
				t.Fatalf("error of no known shape: %v", err)
			}
			return
		}
		// Section for section after the config. An un-sharded file from before
		// the config recorded a worker count loads at any, so its RNG section
		// is not held to the model's stream count.
		again := saved(t, n)
		out := wholeFrames(again)
		for i, in := range fs[1:len(out)] {
			if in.id == secRNG && declared.Workers == 0 && declared.Shards == 0 {
				continue
			}
			if !bytes.Equal(out[i+1].payload(again), in.payload(data)) {
				t.Fatalf("accepted %s section saves to other bytes:\n in  %x\n out %x", sectionNames[in.id], in.payload(data), out[i+1].payload(again))
			}
		}
		n2, err := Load(bytes.NewReader(again), 0)
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		if !bytes.Equal(saved(t, n2), again) {
			t.Fatal("saving is not a fixed point of load+save")
		}
		// HOGWILD on several workers races by design; the race lane trains
		// the engines that do not.
		if cfg := n.Config(); !platform.RaceEnabled || cfg.Workers == 1 || cfg.Shards > 0 {
			n.TrainBatch(batch)
		}
		pred := n.Snapshot()
		pred.Predict(probe, 3)
		if pred.Sampled() {
			if _, err := pred.PredictSampled(probe, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
}
