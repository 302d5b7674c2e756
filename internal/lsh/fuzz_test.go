package lsh

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// FuzzDWTAHash feeds arbitrary sparse vectors (indices reduced into range)
// to the DWTA sparse path: hashes must stay in the bucket space and be
// deterministic.
func FuzzDWTAHash(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{10, 20, 30})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0})
	d, err := NewDWTA(DWTAConfig{K: 3, L: 8, Dim: 64, Seed: 99})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, idxRaw, valRaw []byte) {
		n := min(len(idxRaw), len(valRaw))
		seen := map[int32]bool{}
		var idx []int32
		var val []float32
		for i := 0; i < n; i++ {
			fi := int32(idxRaw[i]) % 64
			if seen[fi] {
				continue
			}
			seen[fi] = true
			idx = append(idx, fi)
			val = append(val, float32(int8(valRaw[i]))/16)
		}
		v := sparse.Vector{Indices: idx, Values: val}
		out1 := make([]uint32, 8)
		out2 := make([]uint32, 8)
		d.Hash(v, out1)
		d.Hash(v, out2)
		limit := uint32(1) << d.Bits()
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatal("hash is not deterministic")
			}
			if out1[i] >= limit {
				t.Fatalf("hash %d outside bucket space %d", out1[i], limit)
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
	var p0, p1 bytes.Buffer
	src.tables[0].Serialize(&p0)
	src.tables[1].Serialize(&p1)
	f.Add(valid.Bytes())
	f.Add(frameSet(tablePayload(bucketSpec{2, 5, []int32{1, 1 << 30}}), p1.Bytes()))                      // id out of range
	f.Add(frameSet(tablePayload(bucketSpec{2, 1, []int32{1}}, bucketSpec{2, 1, []int32{3}}), p1.Bytes())) // bucket twice
	f.Add(valid.Bytes()[:valid.Len()/2])                                                                  // truncated
	f.Add(frameLegacy(p0.Bytes(), p1.Bytes()))                                                            // pre-sentinel layout: refused
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
