package replicate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/simd"
)

// TestInt8WireBytesPinned pins the quantized replication stream — a packed
// base (EncodeBaseQ) and a packed delta (EncodeDeltaQ) — at output rows of
// 128 elements and of 200, whose last 8 are a masked tail of a 16-lane
// register. The model trains on the scalar tier, so its f32 weights are the
// same on every host; the packing then runs on every tier the host has and
// must give the same bytes. The literals were recorded before row
// quantization became a kernel-table entry.
func TestInt8WireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	want := map[int][2]string{
		128: {"006254f161dacb695d4fe86c1d5f86b5197e964ddc44df0b7a2fa214fe154dcf", "bebfe87bb75c21d84c42c67a88a1a964ed7c2289524a3434e26b97e3ab9127f8"},
		200: {"0afef3fbccb5d7f0e25dd4819a56d66760c839d00653554e4e9380050c28386a", "5d9a14f43f9a091da522fe0d560481aae4744afeafa24f27f1233b7cb83ae8ef"},
	}
	sha := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, in := range []int{128, 200} {
		simd.SetMode(simd.Scalar)
		cfg := network.Config{
			InputDim: 60, HiddenDim: in, OutputDim: 40,
			Hash: network.DWTA, K: 2, L: 8, BucketCap: 32,
			MinActive: 6, LR: 0.01, Workers: 1, RebuildEvery: 7, Seed: 71,
		}
		n, err := network.New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.EnableDeltaTracking()
		src := newTrainSrc(60, 40, 29)
		for i := 0; i < 3; i++ {
			n.TrainBatch(src.batch(32))
		}
		p, _ := n.SnapshotDelta()
		for i := 0; i < 2; i++ {
			n.TrainBatch(src.batch(32))
		}
		_, d := n.SnapshotDelta()
		if d == nil || len(d.OutputRows) == 0 {
			t.Fatalf("in=%d: the delta touches no output row", in)
		}
		for _, m := range simd.AvailableModes() {
			simd.SetMode(m)
			base, err := EncodeBaseQ(p, 1, 8)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := EncodeDeltaQ(d, 1, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := [2]string{sha(base), sha(delta)}; got != want[in] {
				t.Errorf("%v, in=%d: base and delta hash to\n%d: {%q, %q},\nwant %q", m, in, in, got[0], got[1], want[in])
			}
		}
	}
}

// quantIdentical asserts the replica predictor is int8-quantized and both
// answers and serializes byte-identically to quantizing the trainer's local
// snapshot — the end-to-end quantize-at-publish contract.
func quantIdentical(t *testing.T, local, remote *network.Predictor, src *trainSrc) {
	t.Helper()
	if !remote.Quantized() || remote.QuantizedBits() != 8 {
		t.Fatalf("replica predictor reports %v/int%d, want int8",
			remote.Quantized(), remote.QuantizedBits())
	}
	lq, err := local.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, lq, remote, src.probes(30))
	var lb, rb bytes.Buffer
	if err := lq.WriteOutput(&lb); err != nil {
		t.Fatal(err)
	}
	if err := remote.WriteOutput(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
		t.Fatal("replica packed rows diverge from a local quantize of the same snapshot")
	}
}

// TestQuantizedFollow: with the hub in int8 mode the replica bootstraps from
// a packed base, applies packed deltas, and at every step serves exactly what
// quantizing the trainer's snapshot would serve — without a single re-sync.
func TestQuantizedFollow(t *testing.T) {
	n := newTestNet(t, 43)
	src := newTrainSrc(60, 20, 11)
	hub := NewHub()
	if err := hub.SetQuantize(8); err != nil {
		t.Fatal(err)
	}
	_, c, swaps := testCluster(t, hub)

	for i := 0; i < 3; i++ {
		n.TrainBatch(src.batch(32))
	}
	p, d := n.SnapshotDelta()
	if d != nil {
		t.Fatal("first snapshot should be a base")
	}
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); c.Run(ctx) }()
	waitVersion(t, swaps, 1)

	local := p
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			n.TrainBatch(src.batch(32))
		}
		var d *network.Delta
		local, d = n.SnapshotDelta()
		if d == nil {
			t.Fatal("expected a delta")
		}
		if err := hub.Publish(local, d); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion(t, swaps, 5)
	quantIdentical(t, local, c.cur, src)
	if got := c.Stats.DeltasApplied.Load(); got != 4 {
		t.Errorf("deltas applied = %d, want 4", got)
	}
	if got := c.Stats.Resyncs.Load(); got != 0 {
		t.Errorf("resyncs = %d, want 0", got)
	}
	cancel()
	<-done
}

// TestQuantizedRingGapResync: a replica that falls out of the quantized
// hub's replay ring re-syncs from a fresh packed base and stays quantized.
func TestQuantizedRingGapResync(t *testing.T) {
	n := newTestNet(t, 47)
	src := newTrainSrc(60, 20, 13)
	hub := NewHub()
	if err := hub.SetQuantize(8); err != nil {
		t.Fatal(err)
	}
	hub.ringCap = 2
	_, c, _ := testCluster(t, hub)

	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}

	// Four more versions while the replica is away; the ring holds two.
	var local *network.Predictor
	for i := 0; i < 4; i++ {
		n.TrainBatch(src.batch(32))
		var d *network.Delta
		local, d = n.SnapshotDelta()
		if err := hub.Publish(local, d); err != nil {
			t.Fatal(err)
		}
	}
	resync, err := c.pollOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resync {
		t.Fatal("expected a ring-gap re-sync")
	}
	if err := c.syncBase(ctx); err != nil {
		t.Fatal(err)
	}
	if c.version != 5 {
		t.Fatalf("re-synced to version %d, want 5", c.version)
	}
	quantIdentical(t, local, c.cur, src)
}

// TestRequireQuantizedRefusesF32: a replica pinned to int8 refuses an f32
// base during sync — sized-for-packed replicas never silently inflate.
func TestRequireQuantizedRefusesF32(t *testing.T) {
	n := newTestNet(t, 53)
	src := newTrainSrc(60, 20, 17)
	hub := NewHub() // f32: SetQuantize never called
	_, c, _ := testCluster(t, hub)
	c.RequireQuantized = 8

	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}

	err := c.syncBase(context.Background())
	if err == nil {
		t.Fatal("int8-pinned replica accepted an f32 base")
	}
	if !strings.Contains(err.Error(), "requires int8") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	if got := c.Stats.Corrupt.Load(); got != 1 {
		t.Errorf("corrupt count = %d, want 1", got)
	}
	if c.cur != nil {
		t.Error("refused base must not install a predictor")
	}
}

// TestSetQuantizeValidation: only widths 0/4/8 are accepted, and the mode is
// immutable once the stream has published (mid-stream flips would desync
// every follower).
func TestSetQuantizeValidation(t *testing.T) {
	hub := NewHub()
	for _, bits := range []int{5, 4} { // 4 was a width once; it is deleted, not deferred
		if err := hub.SetQuantize(bits); err == nil {
			t.Errorf("SetQuantize(%d) accepted", bits)
		}
	}
	if err := hub.SetQuantize(0); err != nil {
		t.Errorf("SetQuantize(0): %v", err)
	}
	if err := hub.SetQuantize(8); err != nil {
		t.Errorf("SetQuantize(8): %v", err)
	}

	n := newTestNet(t, 59)
	n.TrainBatch(newTrainSrc(60, 20, 19).batch(32))
	p, _ := n.SnapshotDelta()
	if err := hub.Publish(p, nil); err != nil {
		t.Fatal(err)
	}
	if err := hub.SetQuantize(8); err == nil {
		t.Error("SetQuantize after Publish accepted")
	}
}

// TestQuantizedWireRoundTrip: v2 base and delta messages carry QBits through
// encode/decode, and an envelope declaring an unknown width is rejected.
func TestQuantizedWireRoundTrip(t *testing.T) {
	n := newTestNet(t, 61)
	src := newTrainSrc(60, 20, 23)
	n.TrainBatch(src.batch(32))
	p, _ := n.SnapshotDelta()
	n.TrainBatch(src.batch(32))
	_, d := n.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta")
	}

	enc, err := EncodeBaseQ(p, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := ReadMessage(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if base == nil || base.Parts.QBits != 8 {
		t.Fatalf("decoded base QBits = %+v, want 8", base)
	}

	dEnc, err := EncodeDeltaQ(d, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, dd, err := ReadMessage(bytes.NewReader(dEnc))
	if err != nil {
		t.Fatal(err)
	}
	if dd == nil || dd.Parts.QBits != 8 || dd.FromVersion != 1 || dd.ToVersion != 2 {
		t.Fatalf("decoded delta = %+v, want QBits 8 v1->v2", dd)
	}

	// The f32 encoders still emit v1 bytes: no qbits field in the envelope.
	v1, err := EncodeBase(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := ReadMessage(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if b1.Parts.QBits != 0 {
		t.Fatalf("f32 base decoded QBits %d, want 0", b1.Parts.QBits)
	}

	// Corrupt the declared width to 5, and to the deleted 4 (re-stamping the
	// envelope section's CRC so only the semantic check can object): message
	// header is 12 bytes, the envelope section header 12 more, so the
	// 40-byte envelope payload spans [24,64) with qbits in its last 8 bytes.
	for _, qbits := range []uint64{5, 4} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[56:64], qbits)
		crc := crc32.Checksum(bad[24:64], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(bad[64:68], crc)
		if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "qbits") {
			t.Fatalf("qbits=%d envelope not rejected: %v", qbits, err)
		}
	}
	if _, err := EncodeBaseQ(p, 1, 4); err == nil {
		t.Fatal("EncodeBaseQ accepted qbits=4")
	}
}
