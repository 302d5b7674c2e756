package network

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
)

// encodeBaseParts round-trips a predictor through its base writers, the
// way the replication wire does (section framing elided — it is CRC
// plumbing, tested in internal/replicate).
func encodeBaseParts(t *testing.T, p *Predictor) BaseParts {
	t.Helper()
	enc := func(f func(w *bytes.Buffer) error) []byte {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	parts := BaseParts{
		Config: enc(func(b *bytes.Buffer) error { return p.WriteBaseConfig(b) }),
		Hidden: enc(func(b *bytes.Buffer) error { return p.WriteHidden(b) }),
		Middle: enc(func(b *bytes.Buffer) error { return p.WriteMiddle(b) }),
		Output: enc(func(b *bytes.Buffer) error { return p.WriteOutput(b, 0) }),
	}
	if p.HasTables() {
		parts.Tables = enc(func(b *bytes.Buffer) error { return p.WriteTables(b) })
	}
	return parts
}

func encodeDeltaParts(t *testing.T, d *Delta) DeltaParts {
	t.Helper()
	enc := func(f func(w *bytes.Buffer) error) []byte {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	parts := DeltaParts{
		FromStep: d.FromStep,
		ToStep:   d.ToStep,
		Hidden:   enc(func(b *bytes.Buffer) error { return d.WriteHidden(b) }),
		Middle:   enc(func(b *bytes.Buffer) error { return d.WriteMiddle(b) }),
		Output:   enc(func(b *bytes.Buffer) error { return d.WriteOutput(b, 0) }),
	}
	if d.TablesChanged {
		parts.Tables = enc(func(b *bytes.Buffer) error { return d.WriteTables(b) })
	}
	return parts
}

// expectSamePredictions asserts exact and LSH-sampled top-k agree
// response-for-response between the local and replicated predictors.
func expectSamePredictions(t *testing.T, tag string, local, remote *Predictor, p *plantedProblem) {
	t.Helper()
	b := p.batch(40)
	for i := 0; i < b.Len(); i++ {
		x := b.Sample(i)
		lw, rw := local.Predict(x, 5), remote.Predict(x, 5)
		if !int32SlicesEqual(lw, rw) {
			t.Fatalf("%s: exact predictions diverge at sample %d: local %v, remote %v", tag, i, lw, rw)
		}
		if local.Sampled() {
			ls, err1 := local.PredictSampled(x, 5)
			rs, err2 := remote.PredictSampled(x, 5)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: sampled predict failed: %v / %v", tag, err1, err2)
			}
			if !int32SlicesEqual(ls, rs) {
				t.Fatalf("%s: sampled predictions diverge at sample %d: local %v, remote %v", tag, i, ls, rs)
			}
		}
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplicaDeltaBitIdentity trains with delta tracking across every
// precision × layout combination and checks that a replica reconstructed
// from base + N applied deltas answers byte-identically to the trainer's
// local snapshot at the same version — LSH rebuilds mid-stream included
// (RebuildEvery is small enough that several fire while deltas flow).
func TestReplicaDeltaBitIdentity(t *testing.T) {
	cases := []struct {
		name      string
		prec      layer.Precision
		placement layer.Placement
		stack     []int
	}{
		{"fp32-contiguous", layer.FP32, layer.Contiguous, nil},
		{"fp32-scattered", layer.FP32, layer.Scattered, nil},
		{"bf16act-contiguous", layer.BF16Act, layer.Contiguous, nil},
		{"bf16both-contiguous", layer.BF16Both, layer.Contiguous, nil},
		{"bf16both-scattered", layer.BF16Both, layer.Scattered, nil},
		{"fp32-stacked", layer.FP32, layer.Contiguous, []int{12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlanted(60, 20, 5, 21)
			cfg := Config{
				InputDim: 60, HiddenDim: 16, OutputDim: 20,
				Hash: DWTA, K: 2, L: 8, BucketCap: 32,
				MinActive: 6, LR: 0.01, Workers: 1,
				Precision: tc.prec, Placement: tc.placement,
				HiddenLayers: tc.stack,
				RebuildEvery: 7, Seed: 31,
			}
			n, err := New(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.EnableDeltaTracking()
			trainN(t, n, p, 5, 32)

			base, d := n.SnapshotDelta()
			if d != nil {
				t.Fatal("first snapshot must not produce a delta")
			}
			remote, err := NewPredictorFromBase(encodeBaseParts(t, base))
			if err != nil {
				t.Fatal(err)
			}
			if remote.ConfigChecksum() != base.ConfigChecksum() {
				t.Fatal("config checksum mismatch after base reconstruction")
			}
			expectSamePredictions(t, "base", base, remote, p)

			sawRebuild := false
			for round := 0; round < 4; round++ {
				trainN(t, n, p, 5, 32) // 5 batches per round; RebuildEvery=7 fires mid-stream
				local, d := n.SnapshotDelta()
				if d == nil {
					t.Fatalf("round %d: expected a delta", round)
				}
				sawRebuild = sawRebuild || d.TablesChanged
				remote, err = remote.ApplyDelta(encodeDeltaParts(t, d))
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if remote.Steps() != local.Steps() {
					t.Fatalf("round %d: replica at step %d, trainer snapshot at %d",
						round, remote.Steps(), local.Steps())
				}
				expectSamePredictions(t, tc.name, local, remote, p)
			}
			if !sawRebuild {
				t.Fatal("test never exercised an LSH rebuild inside the delta stream")
			}
		})
	}
}

// TestReplicaDeltaSparsity checks the economics the subsystem exists for:
// with a short training interval between snapshots, the encoded delta is
// a small fraction of the encoded base.
func TestReplicaDeltaSparsity(t *testing.T) {
	p := newPlanted(400, 300, 5, 11)
	cfg := Config{
		InputDim: 400, HiddenDim: 32, OutputDim: 300,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 8, MaxActive: 24, LR: 0.01, Workers: 1,
		RebuildEvery: 1_000_000, Seed: 7,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableDeltaTracking()
	trainN(t, n, p, 10, 16)
	base, _ := n.SnapshotDelta()
	trainN(t, n, p, 1, 16)
	_, d := n.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta")
	}

	baseParts := encodeBaseParts(t, base)
	deltaParts := encodeDeltaParts(t, d)
	baseBytes := len(baseParts.Hidden) + len(baseParts.Middle) + len(baseParts.Output)
	deltaBytes := len(deltaParts.Hidden) + len(deltaParts.Middle) + len(deltaParts.Output)
	if deltaBytes*2 >= baseBytes {
		t.Errorf("delta moves %d bytes vs base %d (touched %d/%d output rows) — not sparse",
			deltaBytes, baseBytes, len(d.OutputRows), cfg.OutputDim)
	}
}

// TestReplicaDeltaStepGapRejected: a delta whose FromStep does not match
// the replica's step is refused, never partially applied.
func TestReplicaDeltaStepGapRejected(t *testing.T) {
	p := newPlanted(60, 20, 5, 3)
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1, RebuildEvery: 50, Seed: 5,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableDeltaTracking()
	trainN(t, n, p, 3, 32)
	base, _ := n.SnapshotDelta()
	remote, err := NewPredictorFromBase(encodeBaseParts(t, base))
	if err != nil {
		t.Fatal(err)
	}
	trainN(t, n, p, 3, 32)
	n.SnapshotDelta() // v+1, never delivered
	trainN(t, n, p, 3, 32)
	_, d2 := n.SnapshotDelta() // v+2: FromStep is v+1's step, not the replica's
	if d2 == nil {
		t.Fatal("expected a delta")
	}
	if _, err := remote.ApplyDelta(encodeDeltaParts(t, d2)); err == nil {
		t.Fatal("applying a delta across a version gap must fail")
	}
	// The replica still serves its original version.
	expectSamePredictions(t, "after-gap", base, remote, p)
}

// TestNewPredictorFromBaseRefusesOversizeViews: a view payload is decoded
// against the shape the config payload declares, so a 12-byte section whose
// header asks for 2^56 weights (which used to die in makeslice) or for 64 GiB
// is an error before anything is allocated — in the hidden, middle and output
// sections alike, f32 or quantized.
func TestNewPredictorFromBaseRefusesOversizeViews(t *testing.T) {
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20, HiddenLayers: []int{12},
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1, RebuildEvery: 50, Seed: 5,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeBaseParts(t, n.Snapshot())
	if _, err := NewPredictorFromBase(good); err != nil {
		t.Fatalf("intact base: %v", err)
	}
	le := binary.LittleEndian
	for _, dims := range [][2]uint32{{1 << 28, 1 << 28}, {1 << 28, 64}} {
		hdr := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, dims[0]), dims[1]), 0)
		for name, corrupt := range map[string]func(*BaseParts){
			"hidden": func(p *BaseParts) { p.Hidden = le.AppendUint32(hdr, 0) },
			"middle": func(p *BaseParts) { p.Middle = append(le.AppendUint32(nil, 1), hdr...) },
			"output": func(p *BaseParts) { p.Output = hdr },
			"quantized output": func(p *BaseParts) {
				p.QBits, p.Output = 8, le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 64), dims[0]), 8)
			},
		} {
			parts := good
			corrupt(&parts)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewPredictorFromBase(parts)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s section declaring %dx%d: accepted", name, dims[0], dims[1])
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s section declaring %dx%d: refusing it allocated %d bytes", name, dims[0], dims[1], got)
			}
		}
	}
}

// TestNewPredictorFromBaseRefusesOversizeConfig: the config payload no longer
// sizes a replica's weight allocations either. A view's encoded size is an
// exact function of its shape, so a config declaring a huge layer over honest
// small payloads — even with a view header crafted to match it — is refused
// on the payload length, before the weight store it declares is allocated
// (128 MiB for the first case when only headers were compared).
func TestNewPredictorFromBaseRefusesOversizeConfig(t *testing.T) {
	cfg := Config{
		InputDim: 60, HiddenDim: 128, OutputDim: 20,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1, RebuildEvery: 50, Seed: 5,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	good := encodeBaseParts(t, snap)
	quantized := good
	quantized.QBits = 8
	var q bytes.Buffer
	if err := snap.WriteOutput(&q, 8); err != nil {
		t.Fatal(err)
	}
	quantized.Output = q.Bytes()
	for _, parts := range []BaseParts{good, quantized} {
		if _, err := NewPredictorFromBase(parts); err != nil {
			t.Fatalf("intact base (QBits %d): %v", parts.QBits, err)
		}
	}
	le := binary.LittleEndian
	hdr := func(words ...int) []byte {
		var b []byte
		for _, w := range words {
			b = le.AppendUint32(b, uint32(w))
		}
		return b
	}
	deep := make([]int, 64)
	for i := range deep {
		deep[i] = 1 << 14
	}
	for name, craft := range map[string]func(*Config, *BaseParts){
		"2^18 x 128 output rows": func(c *Config, p *BaseParts) {
			c.OutputDim = 1 << 18
			p.Output = hdr(c.HiddenDim, c.OutputDim, int(c.Precision))
		},
		"2^18 x 128 quantized output rows": func(c *Config, p *BaseParts) {
			c.OutputDim = 1 << 18
			p.QBits, p.Output = 8, hdr(c.HiddenDim, c.OutputDim, 8)
		},
		"2^20-wide hidden layer": func(c *Config, p *BaseParts) {
			c.HiddenDim = 1 << 20
			p.Hidden = hdr(c.InputDim, c.HiddenDim, int(c.Precision), int(c.HiddenActivation))
		},
		"64-layer middle stack": func(c *Config, p *BaseParts) {
			c.HiddenLayers = deep
			p.Middle = append(hdr(len(deep)), hdr(c.HiddenDim, deep[0], int(layer.FP32))...)
		},
		"output payload one byte long":  func(c *Config, p *BaseParts) { p.Output = append(bytes.Clone(p.Output), 0) },
		"hidden payload one byte short": func(c *Config, p *BaseParts) { p.Hidden = p.Hidden[:len(p.Hidden)-1] },
	} {
		c, parts := snap.Config(), good
		craft(&c, &parts)
		var cb bytes.Buffer
		if err := writeConfigPayload(&cb, &c, snap.Steps(), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		parts.Config = cb.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewPredictorFromBase(parts)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, got)
		}
	}
}
