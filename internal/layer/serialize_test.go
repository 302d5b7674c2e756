package layer

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
)

// trainCol pushes a few gradient steps through a ColLayer so its weights
// and moments are non-trivial before serialization.
func trainCol(l *ColLayer, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	h := make([]float32, l.Out)
	dh := make([]float32, l.Out)
	for step := 1; step <= 4; step++ {
		x := sampleVec(rng, l.In, 3)
		l.Forward(tks(), x, h)
		for i := range dh {
			dh[i] = float32(rng.NormFloat64())
		}
		l.Backward(tks(), x, h, dh)
		l.ApplyAdam(tks(), simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, int64(step)), 1)
	}
}

func trainRow(l *RowLayer, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 2))
	h := make([]float32, l.In)
	for step := 1; step <= 4; step++ {
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		if l.Options().Precision != FP32 {
			bf16.RoundSlice(h) // the BF16 modes take h already rounded
		}
		id := int32(rng.IntN(l.Out))
		l.Accumulate(tks(), id, float32(rng.NormFloat64()), h, nil, nil)
		l.ApplyAdam(tks(), simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, int64(step)), 1)
	}
}

func TestColLayerSerializeRoundTrip(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16Both} {
		src := NewColLayer(12, 8, ReLU, Options{Precision: prec, Seed: 3})
		trainCol(src, 7)
		var buf bytes.Buffer
		if err := src.Serialize(&buf); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		dst := NewColLayer(12, 8, ReLU, Options{Precision: prec, Seed: 999}) // different init
		if err := dst.Deserialize(&buf); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		// Forward results must match bit-exactly.
		rng := rand.New(rand.NewPCG(5, 6))
		x := sampleVec(rng, 12, 4)
		h1 := make([]float32, 8)
		h2 := make([]float32, 8)
		src.Forward(tks(), x, h1)
		dst.Forward(tks(), x, h2)
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("%v: forward diverged after round trip at %d", prec, i)
			}
		}
		// Moments must round-trip too (training continuation fidelity).
		for j := 0; j < 12; j++ {
			for i := 0; i < 8; i++ {
				if src.m[j][i] != dst.m[j][i] || src.v[j][i] != dst.v[j][i] {
					t.Fatalf("%v: ADAM moments diverged at [%d][%d]", prec, j, i)
				}
			}
		}
	}
}

func TestRowLayerSerializeRoundTrip(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16Both} {
		src := NewRowLayer(10, 6, Options{Precision: prec, Seed: 11})
		trainRow(src, 13)
		var buf bytes.Buffer
		if err := src.Serialize(&buf); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		dst := NewRowLayer(10, 6, Options{Precision: prec, Seed: 777})
		if err := dst.Deserialize(&buf); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		h := make([]float32, 10)
		for i := range h {
			h[i] = float32(i) * 0.1
		}
		if prec != FP32 {
			bf16.RoundSlice(h)
		}
		for id := int32(0); id < 6; id++ {
			if refLogit(tks(), src.ForwardView(), id, h) != refLogit(tks(), dst.ForwardView(), id, h) {
				t.Fatalf("%v: logit %d diverged after round trip", prec, id)
			}
		}
	}
}

func TestSerializeMismatchErrors(t *testing.T) {
	src := NewColLayer(8, 4, ReLU, Options{Seed: 1})
	var buf bytes.Buffer
	if err := src.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong dimensions.
	wrongDim := NewColLayer(8, 5, ReLU, Options{Seed: 1})
	if err := wrongDim.Deserialize(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Wrong precision.
	wrongPrec := NewColLayer(8, 4, ReLU, Options{Precision: BF16Both, Seed: 1})
	if err := wrongPrec.Deserialize(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("precision mismatch accepted")
	}
	// Truncated payload.
	half := buf.Bytes()[:buf.Len()/2]
	okDim := NewColLayer(8, 4, ReLU, Options{Seed: 1})
	if err := okDim.Deserialize(bytes.NewReader(half)); err == nil {
		t.Error("truncated payload accepted")
	}

	row := NewRowLayer(8, 4, Options{Seed: 1})
	var rbuf bytes.Buffer
	if err := row.Serialize(&rbuf); err != nil {
		t.Fatal(err)
	}
	wrongRow := NewRowLayer(9, 4, Options{Seed: 1})
	if err := wrongRow.Deserialize(bytes.NewReader(rbuf.Bytes())); err == nil {
		t.Error("row dimension mismatch accepted")
	}
}

// TestSerializeStreamComposition verifies the exact-bytes contract: two
// layers written back to back must read back from the same stream.
func TestSerializeStreamComposition(t *testing.T) {
	a := NewColLayer(6, 4, Linear, Options{Seed: 21})
	b := NewRowLayer(4, 9, Options{Seed: 22})
	trainCol(a, 23)
	trainRow(b, 24)
	var buf bytes.Buffer
	if err := a.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	a2 := NewColLayer(6, 4, Linear, Options{Seed: 31})
	b2 := NewRowLayer(4, 9, Options{Seed: 32})
	r := bytes.NewReader(buf.Bytes())
	if err := a2.Deserialize(r); err != nil {
		t.Fatal(err)
	}
	if err := b2.Deserialize(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d unread bytes after composed deserialize", r.Len())
	}
	h := []float32{1, 2, 3, 4}
	for id := int32(0); id < 9; id++ {
		if refLogit(tks(), b.ForwardView(), id, h) != refLogit(tks(), b2.ForwardView(), id, h) {
			t.Fatalf("row layer diverged at %d", id)
		}
	}
}
