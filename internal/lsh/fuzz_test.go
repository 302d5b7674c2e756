package lsh

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/simd"
)

// FuzzDWTAHashDense feeds arbitrary shapes and vectors to HashDense under
// every kernel tier: each fingerprint must equal referenceHashDense's. Bytes
// become values in steps of 1/16, so ties are common, and three byte values
// stand for +Inf, -Inf and NaN.
func FuzzDWTAHashDense(f *testing.F) {
	f.Add(uint64(99), uint8(3), uint8(8), uint8(3), uint16(64), []byte{1, 2, 3, 10, 20, 30})
	f.Add(uint64(1), uint8(1), uint8(1), uint8(1), uint16(1), []byte{})
	f.Add(uint64(5), uint8(4), uint8(32), uint8(3), uint16(128), []byte{0, 0, 0x7f, 0x80, 0x81, 200})
	f.Add(uint64(7), uint8(6), uint8(50), uint8(2), uint16(40), []byte{0x81, 5, 5, 5, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, k, l, binLog uint8, dim uint16, raw []byte) {
		cfg := DWTAConfig{K: 1 + int(k)%8, L: 1 + int(l)%64, BinSize: 2 << (binLog % 4), Dim: 1 + int(dim)%512, Seed: seed}
		if cfg.K*(1+int(binLog%4)) > 30 {
			t.Skip()
		}
		d, err := NewDWTA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float32, cfg.Dim)
		for i := range v {
			if len(raw) == 0 {
				break
			}
			switch b := raw[i%len(raw)]; b {
			case 0x7f:
				v[i] = float32(math.Inf(1))
			case 0x80:
				v[i] = float32(math.Inf(-1))
			case 0x81:
				v[i] = float32(math.NaN())
			default:
				v[i] = float32(int8(b)) / 16
			}
		}
		got, want := make([]uint32, cfg.L), make([]uint32, cfg.L)
		referenceHashDense(d, v, want)
		defer simd.SetMode(simd.CurrentMode())
		for _, m := range simd.AvailableModes() {
			simd.SetMode(m)
			d.HashDense(v, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v %+v: got %v, reference %v", m, cfg, got, want)
			}
		}
	})
}

// FuzzSimHashDenseMany feeds arbitrary shapes and batches to HashDenseMany
// under every kernel tier: every vector's fingerprints must equal what
// HashDense and the per-plane Dot definition give it. Values are decoded as
// in FuzzDWTAHashDense, so exact-zero projections, ±Inf and NaN are common.
func FuzzSimHashDenseMany(f *testing.F) {
	f.Add(uint64(7), uint8(6), uint8(19), uint16(199), uint8(9), []byte{1, 2, 3, 0xf0, 0x81})
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(0), []byte{})
	f.Add(uint64(3), uint8(8), uint8(31), uint16(16), uint8(5), []byte{0, 0x7f, 0x80, 16, 0xf0})
	f.Fuzz(func(t *testing.T, seed uint64, k, l uint8, dim uint16, count uint8, raw []byte) {
		cfg := SimHashConfig{K: 1 + int(k)%12, L: 1 + int(l)%32, Dim: 1 + int(dim)%300, Seed: seed}
		s, err := NewSimHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vs := make([][]float32, int(count)%40)
		for i := range vs {
			vs[i] = make([]float32, cfg.Dim)
			for f := range vs[i] {
				if len(raw) == 0 {
					break
				}
				switch b := raw[(i*cfg.Dim+f)%len(raw)]; b {
				case 0x7f:
					vs[i][f] = float32(math.Inf(1))
				case 0x80:
					vs[i][f] = float32(math.Inf(-1))
				case 0x81:
					vs[i][f] = float32(math.NaN())
				default:
					vs[i][f] = float32(int8(b)) / 16
				}
			}
		}
		got, one, def := make([]uint32, len(vs)*cfg.L), make([]uint32, cfg.L), make([]uint32, cfg.L)
		defer simd.SetMode(simd.CurrentMode())
		for _, m := range simd.AvailableModes() {
			simd.SetMode(m)
			s.HashDenseMany(vs, got)
			for i, v := range vs {
				s.HashDense(v, one)
				dotFingerprints(s, simd.Active(), v, def)
				if h := got[i*cfg.L : (i+1)*cfg.L]; !slices.Equal(h, one) || !slices.Equal(h, def) {
					t.Fatalf("%v %+v vector %d of %d: HashDenseMany %v, HashDense %v, per-plane Dot %v", m, cfg, i, len(vs), h, one, def)
				}
			}
		}
	})
}

// FuzzTableInsert exercises the bucket policies with arbitrary fingerprint
// streams: Build must equal serial insertion byte for byte, and buckets must
// never exceed capacity nor hold ids that were not offered.
func FuzzTableInsert(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{5}, 40))
	f.Fuzz(func(t *testing.T, stream []byte) {
		const first = 100
		hs := make([]uint32, len(stream))
		for i, b := range stream {
			hs[i] = uint32(b)
		}
		for _, policy := range []BucketPolicy{FIFO, Reservoir} {
			tbl := NewTable(4, 3, policy, 7)
			tbl.Build(first, hs)
			ref := refLike(tbl)
			for i, h := range hs {
				ref.Insert(first+int32(i), h)
			}
			if !bytes.Equal(tableBytes(t, tbl), refBytes(t, ref)) {
				t.Fatalf("%v: Build differs from serial insertion over %v", policy, stream)
			}
			for b := 0; b < tbl.Buckets(); b++ {
				bucket := tbl.Query(uint32(b))
				if len(bucket) > 3 {
					t.Fatalf("%v bucket %d exceeded capacity: %v", policy, b, bucket)
				}
				for _, id := range bucket {
					if id < first || int(id-first) >= len(hs) || hs[id-first]&15 != uint32(b) {
						t.Fatalf("%v bucket %d holds phantom id %d", policy, b, id)
					}
				}
			}
		}
	})
}

// fuzzSet is the small shaped set FuzzTableSetDeserialize decodes into: two
// tables of eight buckets of capacity four over rows [0, fuzzRows).
func fuzzSet(t testing.TB) *TableSet {
	h, err := NewSimHash(SimHashConfig{K: 3, L: 2, Dim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return NewTableSet(h, 4, FIFO, 6)
}

const fuzzRows = 64

// FuzzTableSetDeserialize feeds arbitrary bytes to the table-set decoder. It
// must answer with a typed error — malformed, checksum, or truncated — or
// with a set that re-encodes to exactly the bytes it consumed and that a
// probe of any bucket can walk without indexing outside a dedup array sized
// to the row range.
func FuzzTableSetDeserialize(f *testing.F) {
	src := fuzzSet(f)
	for i, tbl := range src.tables {
		hs := make([]uint32, 40)
		for j := range hs {
			hs[j] = uint32(splitmix64(uint64(i*100+j)) % 6)
		}
		tbl.Build(0, hs)
	}
	var valid bytes.Buffer
	if err := src.Serialize(&valid); err != nil {
		f.Fatal(err)
	}
	p0, p1 := src.tables[0].appendTo(nil), src.tables[1].appendTo(nil)
	f.Add(valid.Bytes())
	f.Add(frameSet(tablePayload(bucketSpec{2, 5, []int32{1, 1 << 30}}), p1))                      // id out of range
	f.Add(frameSet(tablePayload(bucketSpec{2, 1, []int32{1}}, bucketSpec{2, 1, []int32{3}}), p1)) // bucket twice
	f.Add(valid.Bytes()[:valid.Len()/2])                                                          // truncated
	f.Add(frameLegacy(p0, p1))                                                                    // pre-sentinel layout: refused
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzSet(t)
		r := bytes.NewReader(data)
		if err := ts.Deserialize(r, 0, fuzzRows); err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		if again := serializeSet(t, ts); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted stream re-encodes differently:\n in  %x\n out %x", consumed, again)
		}
		d := NewDedup(fuzzRows)
		for b := uint32(0); b < 8; b++ {
			d.Begin()
			for _, id := range ts.Collect([]uint32{b, b}, d, 0, nil, 0) {
				if id < 0 || id >= fuzzRows {
					t.Fatalf("accepted stream holds id %d outside [0,%d)", id, fuzzRows)
				}
			}
		}
	})
}
