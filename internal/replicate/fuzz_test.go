package replicate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sections walks the framing of msg after its 12-byte header and calls visit
// with each whole section's offset, payload offset and payload length.
func sections(msg []byte, visit func(off, payloadOff, n int)) {
	for off := 12; off+16 <= len(msg); {
		n := binary.LittleEndian.Uint64(msg[off+4:])
		if n > uint64(len(msg)-off-16) {
			return
		}
		visit(off, off+12, int(n))
		off += 12 + int(n) + 4
	}
}

// restamp recomputes the CRC32C trailer of every whole section of msg in
// place, so a mutation inside a payload reaches the decoder behind the frame.
func restamp(msg []byte) []byte {
	sections(msg, func(_, p, n int) {
		binary.LittleEndian.PutUint32(msg[p+n:], crc32.Checksum(msg[p:p+n], castagnoli))
	})
	return msg
}

// section returns a copy of msg with the payload of its i-th section replaced
// (nil drops the section) and the frame rewritten around it.
func section(msg []byte, i int, payload []byte) []byte {
	out := bytes.Clone(msg[:12])
	k := 0
	sections(msg, func(off, p, n int) {
		switch {
		case k != i:
			out = append(out, msg[off:p+n+4]...)
		case payload != nil:
			out = append(out, msg[off:off+4]...)
			out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
			out = append(append(out, payload...), 0, 0, 0, 0)
		}
		k++
	})
	return restamp(out)
}

// payloadOf returns the payload of msg's i-th section.
func payloadOf(msg []byte, i int) (payload []byte) {
	k := 0
	sections(msg, func(_, p, n int) {
		if k == i {
			payload = msg[p : p+n]
		}
		k++
	})
	return payload
}

// setU64 returns a copy of b with word w (8-byte little-endian) set to v.
func setU64(b []byte, w int, v uint64) []byte {
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint64(b[8*w:], v)
	return b
}

// Section indices within a base and a delta message, and the words of the
// base config payload the seeds and the harness address (the checkpoint
// config layout: 21 u64 fields, 6 f64, the middle-stack count and dims).
const (
	baseEnv, baseConfig, baseHidden, baseMiddle, baseOutput, baseTables = 0, 1, 2, 3, 4, 5
	deltaEnv, deltaHidden, deltaMiddle, deltaOutput, deltaTables        = 0, 1, 2, 3, 4

	cfgHiddenDim, cfgOutputDim = 1, 2
	cfgHash, cfgBucketCap      = 4, 8 // Hash, K, L, BinSize, BucketCap: the table geometry
	cfgMiddleCount             = 27
)

// fuzzModel is one fixed small trained model of the fuzz target: a base
// snapshot at step 3 and the deltas to steps 4 and 6 (a table rebuild inside
// the second), as f32 and as int8 messages, with the replicas at step 3 the
// deltas are applied onto.
type fuzzModel struct {
	crc           uint32
	base, d4, d6  [2][]byte // [0] wire v1, [1] wire v2 at 8 bits
	replica       [2]*network.Predictor
	replicaEnc    [2][]byte // what the replicas encode to, before and after
	tableGeometry []byte
}

func newFuzzModel(t testing.TB, shards int, uniform bool) *fuzzModel {
	cfg := network.Config{InputDim: 60, HiddenDim: 16, HiddenLayers: []int{12}, OutputDim: 40,
		Hash: network.DWTA, K: 2, L: 8, BucketCap: 32, MinActive: 8, LR: 0.01, Workers: 1,
		RebuildEvery: 5, Seed: 401, Shards: shards, UniformSampling: uniform}
	n, err := network.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableDeltaTracking()
	src := newTrainSrc(60, 40, 13)
	train := func(steps int) (*network.Predictor, *network.Delta) {
		for range steps {
			n.TrainBatch(src.batch(16))
		}
		return n.SnapshotDelta()
	}
	must := func(msg []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	p3, _ := train(3)
	_, d4 := train(1)
	_, d6 := train(2)
	m := &fuzzModel{crc: p3.ConfigChecksum()}
	for q, bits := range []int{0, 8} {
		m.base[q] = must(encodeBase(p3, 1, bits))
		m.d4[q] = must(encodeDelta(d4, 1, 2, bits))
		m.d6[q] = must(encodeDelta(d6, 2, 3, bits))
		b, _, err := ReadMessage(bytes.NewReader(m.base[q]))
		if err != nil {
			t.Fatal(err)
		}
		if m.replica[q], err = network.NewPredictorFromBase(b.Parts); err != nil {
			t.Fatal(err)
		}
		m.replicaEnc[q] = m.base[q]
	}
	c := payloadOf(m.base[0], baseConfig)
	m.tableGeometry = c[8*cfgHash : 8*(cfgBucketCap+1)]
	return m
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadMessage feeds arbitrary bytes to the replicate envelope and, past
// it, to the two consumers a replica hands a decoded message to. Whatever the
// bytes: ReadMessage returns an error or a message; NewPredictorFromBase on a
// decoded base, and ApplyDelta of a decoded delta onto the fixed replica with
// its config fingerprint, return an error or a predictor that (a) encodes
// (EncodeBase, or EncodeBaseQ on a v2 stream) to a message whose weight
// and tables sections are the consumed ones byte for byte (the envelope's step
// and fingerprint are advisory copies no decoder holds against the config
// section: for those and for the config section, which Validate normalises,
// the check is that decoding and encoding once more is a fixed point), (b)
// answers an exact and a sampled query without indexing out of range, and (c)
// left the replica it was patched from untouched. Nothing panics, and no
// input makes the decoders allocate more than a fixed multiple of its length:
// with restamp set the section checksums are recomputed first, so mutations
// reach the payload decoders instead of dying on the CRC. Table
// geometry is the one thing a config still sizes (see CHANGES.md), so configs
// declaring another are not built.
func FuzzReadMessage(f *testing.F) {
	models := []*fuzzModel{newFuzzModel(f, 0, false), newFuzzModel(f, 1, false), newFuzzModel(f, 4, false), newFuzzModel(f, 0, true)}
	s0, s1, s4, uni := models[0], models[1], models[2], models[3]
	for _, m := range models[:3] {
		for q := range 2 {
			f.Add(m.base[q], false)
			f.Add(m.d4[q], false)
			f.Add(m.d6[q], false)
		}
	}
	f.Add(uni.base[0], false)
	f.Add(uni.d6[1], false)
	// Every section truncated, one byte flipped in every section.
	for _, msg := range [][]byte{s0.base[0], s4.base[1], s0.d6[0], s4.d6[1]} {
		sections(msg, func(_, p, n int) {
			f.Add(msg[:p+n/2], false)
			flipped := bytes.Clone(msg)
			flipped[p+n/2] ^= 0x10
			f.Add(flipped, false)
			f.Add(bytes.Clone(flipped), true)
		})
	}
	// The hasTables flag flipped both ways (word 2 of a base envelope, 4 of a
	// delta's): a sampled model's messages with it cleared, and an unsampled
	// base and a rebuild-free delta with it set over someone else's tables.
	f.Add(section(s0.base[0], baseEnv, setU64(payloadOf(s0.base[0], baseEnv), 2, 0)), false)
	f.Add(section(s4.d6[0], deltaEnv, setU64(payloadOf(s4.d6[0], deltaEnv), 4, 0)), false)
	withTables := func(msg []byte, env, flag int, tables []byte) []byte {
		msg = section(msg, env, setU64(payloadOf(msg, env), flag, 1))
		msg = append(msg, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(msg[len(msg)-4:], secTables)
		msg = binary.LittleEndian.AppendUint64(msg, uint64(len(tables)))
		return restamp(append(append(msg, tables...), 0, 0, 0, 0))
	}
	f.Add(withTables(uni.base[0], baseEnv, 2, payloadOf(s0.base[0], baseTables)), false)
	f.Add(withTables(s0.d4[0], deltaEnv, 4, payloadOf(s0.d6[0], deltaTables)), false)
	// A tables payload for another shard count, in a base and in a delta.
	f.Add(section(s4.base[0], baseTables, payloadOf(s1.base[0], baseTables)), false)
	f.Add(section(s0.base[1], baseTables, payloadOf(s4.base[1], baseTables)), false)
	f.Add(section(s1.d6[0], deltaTables, payloadOf(s4.d6[0], deltaTables)), false)
	// Tables followed by bytes no set owns.
	f.Add(section(s0.base[0], baseTables, append(bytes.Clone(payloadOf(s0.base[0], baseTables)), 1, 2, 3)), false)
	// A delta against the wrong step (FromStep is word 2 of its envelope).
	f.Add(section(s0.d4[0], deltaEnv, setU64(payloadOf(s0.d4[0], deltaEnv), 2, 2)), false)
	f.Add(s0.d6[1], false) // step 4 → 6 onto the replica at step 3
	// Oversize configs over honest small payloads, with the header of the
	// section they size crafted to match.
	u32s := func(vs ...uint32) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	c := payloadOf(s0.base[0], baseConfig)
	wide := section(s0.base[0], baseConfig, setU64(c, cfgOutputDim, 1<<18))
	f.Add(section(wide, baseOutput, u32s(12, 1<<18, 0)), false)
	wideQ := section(s0.base[1], baseConfig, setU64(c, cfgOutputDim, 1<<18))
	f.Add(section(wideQ, baseOutput, u32s(12, 1<<18, 8)), false)
	fat := section(s0.base[0], baseConfig, setU64(c, cfgHiddenDim, 1<<20))
	f.Add(section(fat, baseHidden, u32s(60, 1<<20, 0, 0)), false)
	deep := setU64(c[:8*(cfgMiddleCount+1)], cfgMiddleCount, 64)
	for range 64 {
		deep = binary.LittleEndian.AppendUint64(deep, 1<<14)
	}
	deep = append(deep, c[8*(cfgMiddleCount+2):]...)
	f.Add(section(section(s0.base[0], baseConfig, deep), baseMiddle, u32s(64, 16, 1<<14, 0)), false)
	// A section declaring 2 GiB it does not have.
	huge := bytes.Clone(s0.base[0][:24])
	binary.LittleEndian.PutUint64(huge[16:], 1<<31)
	f.Add(huge, false)

	probe := newTrainSrc(60, 40, 17).probes(1)[0]
	f.Fuzz(func(t *testing.T, data []byte, stamp bool) {
		if stamp {
			data = restamp(bytes.Clone(data))
		}
		var got uint64
		defer func() {
			if limit := uint64(64*len(data) + 1<<20); got > limit {
				t.Fatalf("%d input bytes made the decoders allocate %d", len(data), got)
			}
		}()
		var base *Base
		var delta *Delta
		var p *network.Predictor
		var from *fuzzModel
		var q int
		got = allocatedBy(func() {
			var err error
			if base, delta, err = ReadMessage(bytes.NewReader(data)); err != nil {
				return
			}
			if base != nil {
				if c := base.Parts.Config; len(c) < 8*(cfgBucketCap+1) || !bytes.Equal(c[8*cfgHash:8*(cfgBucketCap+1)], s0.tableGeometry) {
					return
				}
				p, _ = network.NewPredictorFromBase(base.Parts)
				return
			}
			if delta.Parts.QBits != 0 {
				q = 1
			}
			for _, m := range models {
				if m.crc == delta.ConfigCRC {
					from = m
					p, _ = m.replica[q].ApplyDelta(delta.Parts)
				}
			}
		})
		if p == nil {
			return
		}
		var version uint64
		var bits int
		if base != nil {
			version, bits = base.Version, base.Parts.QBits
		} else {
			version, bits = delta.ToVersion, delta.Parts.QBits
			if p.Steps() != delta.Parts.ToStep {
				t.Fatalf("applied delta to step %d left the predictor at step %d", delta.Parts.ToStep, p.Steps())
			}
			if enc, err := encodeBase(from.replica[q], 1, bits); err != nil || !bytes.Equal(enc, from.replicaEnc[q]) {
				t.Fatalf("ApplyDelta modified the predictor it was applied to (%v)", err)
			}
		}
		enc, err := encodeBase(p, version, bits)
		if err != nil {
			t.Fatalf("accepted predictor does not encode: %v", err)
		}
		b2, _, err := ReadMessage(bytes.NewReader(enc))
		if err != nil || b2 == nil {
			t.Fatalf("re-encoded base does not decode: %v", err)
		}
		if base != nil {
			in, out := base.Parts, b2.Parts
			for _, sec := range []struct {
				name      string
				consumed  []byte
				reencoded []byte
			}{{"hidden", in.Hidden, out.Hidden}, {"middle", in.Middle, out.Middle}, {"output", in.Output, out.Output}, {"tables", in.Tables, out.Tables}} {
				if !bytes.Equal(sec.reencoded, sec.consumed) {
					t.Fatalf("%s re-encodes to %d bytes that differ from the %d consumed", sec.name, len(sec.reencoded), len(sec.consumed))
				}
			}
		}
		p2, err := network.NewPredictorFromBase(b2.Parts)
		if err != nil {
			t.Fatalf("re-encoded base does not build: %v", err)
		}
		if enc2, err := encodeBase(p2, version, bits); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point of decode+encode (%v)", err)
		}
		x := probe
		if p.Config().InputDim < 60 { // the probe's features must exist
			x = sparse.Vector{Indices: []int32{0}, Values: []float32{1}}
		}
		p.Predict(x, 3)
		if p.Sampled() {
			if _, err := p.PredictSampled(x, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
}
