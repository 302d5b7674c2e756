package network

import (
	"bytes"
	"math"
	"testing"

	"github.com/slide-cpu/slide/internal/sparse"
)

// quantTestNet builds and briefly trains a small LSH-sampled network on the
// planted problem, returning the network and a labelled probe batch.
func quantTestNet(t *testing.T, seed uint64, shards, workers int) (*Network, *plantedProblem) {
	t.Helper()
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 24,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: workers,
		RebuildEvery: 7, Seed: seed,
	}
	if shards > 0 {
		cfg.Shards = shards
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, newPlanted(60, 24, 5, seed)
}

func TestQuantizePredictorBasics(t *testing.T) {
	n, pl := quantTestNet(t, 11, 0, 1)
	for i := 0; i < 4; i++ {
		n.TrainBatch(pl.batch(32))
	}
	p := n.Snapshot()
	probes := pl.batch(16)

	// Source answers, recorded before quantization.
	var before [][]int32
	for i := 0; i < probes.Len(); i++ {
		before = append(before, p.Predict(probes.Sample(i), 5))
	}

	q8, err := p.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	if q8.QuantizedBits() != 8 || q8.PrecisionName() != "int8" {
		t.Fatalf("quantized predictor reports %d/%s", q8.QuantizedBits(), q8.PrecisionName())
	}
	if p.QuantizedBits() != 0 || p.PrecisionName() != "f32" {
		t.Fatalf("source predictor reports %d/%s after Quantize", p.QuantizedBits(), p.PrecisionName())
	}
	if q8.PackedBytes() >= p.PackedBytes() {
		t.Fatalf("int8 view (%d bytes) not smaller than f32 view (%d bytes)",
			q8.PackedBytes(), p.PackedBytes())
	}
	if _, err := q8.Quantize(8); err == nil {
		t.Fatal("re-quantizing a quantized predictor must error")
	}
	if q8.Steps() != p.Steps() {
		t.Fatalf("quantized Steps %d != source %d", q8.Steps(), p.Steps())
	}

	// The source must be byte-for-byte untouched: same answers as before.
	for i := 0; i < probes.Len(); i++ {
		got := p.Predict(probes.Sample(i), 5)
		for j := range got {
			if got[j] != before[i][j] {
				t.Fatalf("probe %d: source predictor changed after Quantize: %v -> %v",
					i, before[i], got)
			}
		}
	}
}

// TestQuantizedServingEquivalence: on a quantized predictor every serving
// entry point — Predict, PredictBatchK (mixed k), Scores+rank — produces
// identical results, on both unsharded and sharded (scatter-gather) models.
func TestQuantizedServingEquivalence(t *testing.T) {
	for _, shards := range []int{0, 3} {
		n, pl := quantTestNet(t, 17, shards, 1)
		for i := 0; i < 4; i++ {
			n.TrainBatch(pl.batch(32))
		}
		q, err := n.Snapshot().Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		probes := pl.batch(20)
		xs := make([]sparse.Vector, probes.Len())
		ks := make([]int, probes.Len())
		singles := make([][]int32, probes.Len())
		for i := range xs {
			xs[i] = probes.Sample(i)
			ks[i] = 1 + i%7 // mixed per-sample k inside one fused walk
			singles[i] = q.Predict(xs[i], ks[i])
		}
		batched := q.PredictBatchK(xs, ks)
		for i := range singles {
			if len(batched[i]) != len(singles[i]) {
				t.Fatalf("shards=%d sample %d: batch %v vs single %v", shards, i, batched[i], singles[i])
			}
			for j := range singles[i] {
				if batched[i][j] != singles[i][j] {
					t.Fatalf("shards=%d sample %d: batch %v vs single %v", shards, i, batched[i], singles[i])
				}
			}
		}

		// Sampled inference must run on the quantized rows too.
		if _, err := q.PredictSampled(probes.Sample(0), 5); err != nil {
			t.Fatalf("shards=%d: PredictSampled on quantized predictor: %v", shards, err)
		}
	}
}

// TestQuantizedPrecisionGate: int8 quantization costs at most half a point
// of precision@1 against the f32 snapshot on a trained planted problem.
func TestQuantizedPrecisionGate(t *testing.T) {
	n, pl := quantTestNet(t, 23, 0, 1)
	for i := 0; i < 30; i++ {
		n.TrainBatch(pl.batch(64))
	}
	p := n.Snapshot()
	q8, err := p.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	eval := pl.batch(400)
	f32P, i8P := p.Evaluate(eval, eval.Len(), 1), q8.Evaluate(eval, eval.Len(), 1)
	if f32P < 0.5 {
		t.Fatalf("f32 baseline failed to learn (p@1 %.3f); the gate would be vacuous", f32P)
	}
	if delta := (f32P - i8P) * 100; delta > 0.5 {
		t.Errorf("int8 p@1 delta %.2f points (f32 %.4f, int8 %.4f), gate is 0.5", delta, f32P, i8P)
	}
}

// TestQuantizedPackingWorkerIndependence: the deterministic sharded trainer
// produces bit-identical weights at any worker count, and row quantization
// is a pure per-row function — so the packed int8 serialization must be
// byte-identical across W in {1, 2, 4}.
func TestQuantizedPackingWorkerIndependence(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 2, 4} {
		n, pl := quantTestNet(t, 29, 2, workers)
		for i := 0; i < 6; i++ {
			n.TrainBatch(pl.batch(32))
		}
		q, err := n.Snapshot().Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := q.WriteOutput(&buf, 8); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("W=%d packed snapshot differs from W=1 (%d vs %d bytes)",
				workers, buf.Len(), len(ref))
		}
	}
}

// TestQuantizedBytesRatio30k: on the 30k-output/128-hidden gate regime the
// int8 packed view must be at most 30% of the f32 view bytes.
func TestQuantizedBytesRatio30k(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 30k-output model")
	}
	cfg := Config{
		InputDim: 64, HiddenDim: 128, OutputDim: 30000,
		NoSampling: true, LR: 0.01, Workers: 1, Seed: 3,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Snapshot()
	q8, err := p.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(q8.PackedBytes()) / float64(p.PackedBytes())
	if math.IsNaN(ratio) || ratio > 0.30 {
		t.Fatalf("int8/f32 bytes ratio %.3f (int8 %d, f32 %d), gate is 0.30",
			ratio, q8.PackedBytes(), p.PackedBytes())
	}
}

// TestQuantizedReplicaCycle: a quantized base reconstructed via
// NewPredictorFromBase followed by quantized delta applies stays
// byte-identical to quantizing the trainer's local snapshot at each step —
// the replica-side half of the quantize-at-publish contract.
func TestQuantizedReplicaCycle(t *testing.T) {
	n, pl := quantTestNet(t, 37, 0, 1)
	n.EnableDeltaTracking()
	for i := 0; i < 3; i++ {
		n.TrainBatch(pl.batch(32))
	}
	local, d := n.SnapshotDelta()
	if d != nil {
		t.Fatal("first snapshot should be a base")
	}

	encodeBase := func(p *Predictor) BaseParts {
		t.Helper()
		var cfgB, hidB, midB, outB, tabB bytes.Buffer
		if err := p.WriteBaseConfig(&cfgB); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteHidden(&hidB); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteMiddle(&midB); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteOutput(&outB, 8); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteTables(&tabB); err != nil {
			t.Fatal(err)
		}
		return BaseParts{Config: cfgB.Bytes(), Hidden: hidB.Bytes(), Middle: midB.Bytes(),
			Output: outB.Bytes(), Tables: tabB.Bytes(), QBits: 8}
	}

	replica, err := NewPredictorFromBase(encodeBase(local))
	if err != nil {
		t.Fatal(err)
	}
	if replica.QuantizedBits() != 8 {
		t.Fatalf("replica from quantized base reports int%d", replica.QuantizedBits())
	}

	// expectQuantIdentical asserts the replica serializes byte-identically
	// to a fresh local quantize (stronger than answer equality) and answers
	// like it on probes.
	expectQuantIdentical := func(local *Predictor) {
		t.Helper()
		lq, err := local.Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		var lb, rb bytes.Buffer
		if err := lq.WriteOutput(&lb, 8); err != nil {
			t.Fatal(err)
		}
		if err := replica.WriteOutput(&rb, 8); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
			t.Fatal("replica packed rows diverge from a local quantize of the same snapshot")
		}
		probes := pl.batch(16)
		for i := 0; i < probes.Len(); i++ {
			lw := lq.Predict(probes.Sample(i), 5)
			rw := replica.Predict(probes.Sample(i), 5)
			for j := range lw {
				if lw[j] != rw[j] {
					t.Fatalf("probe %d: local-quantized %v, replica %v", i, lw, rw)
				}
			}
		}
	}
	expectQuantIdentical(local)

	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			n.TrainBatch(pl.batch(32))
		}
		var d *Delta
		local, d = n.SnapshotDelta()
		if d == nil {
			t.Fatal("expected a delta")
		}
		var hidB, midB, outB bytes.Buffer
		if err := d.WriteHidden(&hidB); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteMiddle(&midB); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteOutput(&outB, 8); err != nil {
			t.Fatal(err)
		}
		parts := DeltaParts{
			FromStep: d.FromStep, ToStep: d.ToStep,
			Hidden: hidB.Bytes(), Middle: midB.Bytes(), Output: outB.Bytes(),
			QBits: 8,
		}
		if d.TablesChanged {
			var tabB bytes.Buffer
			if err := d.WriteTables(&tabB); err != nil {
				t.Fatal(err)
			}
			parts.Tables = tabB.Bytes()
		}
		replica, err = replica.ApplyDelta(parts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		expectQuantIdentical(local)
	}
}

// TestQuantizedDeltaMismatchRejected: an f32 delta onto a quantized replica
// (and vice versa), or a width flip, is refused before any state changes.
func TestQuantizedDeltaMismatchRejected(t *testing.T) {
	n, pl := quantTestNet(t, 41, 0, 1)
	n.EnableDeltaTracking()
	n.TrainBatch(pl.batch(32))
	base, _ := n.SnapshotDelta()
	q8, err := base.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}

	n.TrainBatch(pl.batch(32))
	_, d := n.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta")
	}
	var hidB, midB bytes.Buffer
	if err := d.WriteHidden(&hidB); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMiddle(&midB); err != nil {
		t.Fatal(err)
	}
	encOut := func(bits int) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := d.WriteOutput(&b, bits); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	mk := func(out []byte, qbits int) DeltaParts {
		return DeltaParts{FromStep: d.FromStep, ToStep: d.ToStep,
			Hidden: hidB.Bytes(), Middle: midB.Bytes(), Output: out, QBits: qbits}
	}

	if _, err := q8.ApplyDelta(mk(encOut(0), 0)); err == nil {
		t.Fatal("f32 delta onto a quantized replica must be rejected")
	}
	if _, err := base.ApplyDelta(mk(encOut(8), 8)); err == nil {
		t.Fatal("quantized delta onto an f32 replica must be rejected")
	}
	if _, err := q8.ApplyDelta(mk(encOut(8), 4)); err == nil {
		t.Fatal("a delta declaring another bit width than the replica holds must be rejected")
	}
	// The matching delta still applies cleanly afterwards: nothing tore.
	if _, err := q8.ApplyDelta(mk(encOut(8), 8)); err != nil {
		t.Fatalf("matching quantized delta refused: %v", err)
	}
}
