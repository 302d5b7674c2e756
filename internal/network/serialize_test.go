package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/platform"
)

func trainedNet(t *testing.T, prec layer.Precision) (*Network, *plantedProblem) {
	t.Helper()
	p := newPlanted(60, 20, 5, 31)
	cfg := Config{
		InputDim: 60, HiddenDim: 16, OutputDim: 20,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32,
		MinActive: 6, LR: 0.01, Workers: 1,
		Precision: prec, RebuildEvery: 10, Seed: 77,
	}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n.TrainBatch(p.batch(32))
	}
	return n, p
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, prec := range []layer.Precision{layer.FP32, layer.BF16Act, layer.BF16Both} {
		n, p := trainedNet(t, prec)
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()), 1)
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if loaded.Step() != n.Step() {
			t.Errorf("%v: step %d != %d", prec, loaded.Step(), n.Step())
		}
		if loaded.Config().OutputDim != 20 || loaded.Config().Precision != prec {
			t.Errorf("%v: config not restored: %+v", prec, loaded.Config())
		}
		// Scores must match exactly: weights round-trip bit-identically.
		x := p.batch(1).Sample(0)
		s1 := make([]float32, 20)
		s2 := make([]float32, 20)
		n.Scores(x, s1)
		loaded.Scores(x, s2)
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%v: score[%d] %g != %g after round trip", prec, i, s1[i], s2[i])
			}
		}
	}
}

func TestLoadedNetworkKeepsLearning(t *testing.T) {
	n, p := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := evalP1(loaded, p, 150)
	for i := 0; i < 60; i++ {
		loaded.TrainBatch(p.batch(32))
	}
	after := evalP1(loaded, p, 150)
	if after < before-0.1 {
		t.Errorf("resumed training regressed: %.3f -> %.3f", before, after)
	}
	// The optimizer step must have advanced past the checkpoint.
	if loaded.Step() != n.Step()+60 {
		t.Errorf("step = %d, want %d", loaded.Step(), n.Step()+60)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a checkpoint at all, definitely not"), 1); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(""), 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	n, _ := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, 100, len(full) / 2, len(full) - 7} {
		if _, err := Load(bytes.NewReader(full[:cut]), 1); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestLoadedTablesUsable: the tables a checkpoint carries are in place, and
// sampling works, straight after Load.
func TestLoadedTablesUsable(t *testing.T) {
	n, p := trainedNet(t, layer.FP32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := loaded.Tables().Stats()
	if st.Stored == 0 {
		t.Error("tables empty after load: the tables section was not restored")
	}
	// Sampling must work immediately.
	loaded.TrainBatch(p.batch(8))
}

// TestLoadDoesNotRehash: Load reads the tables the checkpoint carries and
// hashes nothing. It used to construct the network through New, which hashed
// every freshly initialised output row into tables the tables section then
// overwrote — one whole rebuild of wasted work per load. The checkpoint here
// is taken nine steps after the last scheduled rebuild, so its tables are
// stale with respect to its weights and a rehash would show.
func TestLoadDoesNotRehash(t *testing.T) {
	n, _ := trainedNet(t, layer.FP32) // rebuilds after batches 10 and 21 of 30
	tableBytes := func(n *Network) []byte {
		var b bytes.Buffer
		if err := n.Tables().Serialize(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	stored := tableBytes(n)
	var ckpt bytes.Buffer
	if err := n.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&ckpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.rebuildGen != 0 {
		t.Errorf("Load rebuilt the tables %d time(s); it must only read them", loaded.rebuildGen)
	}
	if !bytes.Equal(tableBytes(loaded), stored) {
		t.Error("the loaded tables do not re-serialize to the stored bytes")
	}
	loaded.EnableDeltaTracking()
	if _, d := loaded.SnapshotDelta(); d != nil {
		t.Error("the first SnapshotDelta after a load returned a delta, want a full base")
	}
	loaded.rebuildTables(loaded.fanout.Run)
	if bytes.Equal(tableBytes(loaded), stored) {
		t.Fatal("premise: the stored tables equal a rehash of the stored weights, so the test cannot see one")
	}
}

// TestCheckpointRecordsWorkers: an un-sharded checkpoint pins the HOGWILD
// worker count its bytes depend on. Load(r, 0) adopts it — whatever
// GOMAXPROCS is on the loading host — an explicit matching count is
// accepted, and any other is refused with ErrWorkersMismatch. Three HOGWILD
// workers race by design, so the race detector sees an untrained model.
func TestCheckpointRecordsWorkers(t *testing.T) {
	p := newPlanted(60, 20, 5, 31)
	cfg := Config{InputDim: 60, HiddenDim: 16, OutputDim: 20, Hash: DWTA, K: 2, L: 8,
		MinActive: 6, LR: 0.01, Workers: 3, Seed: 78}
	n, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !platform.RaceEnabled {
		trainN(t, n, p, 5, 16)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ask := range []int{0, 3} {
		loaded, err := Load(bytes.NewReader(buf.Bytes()), ask)
		if err != nil {
			t.Fatalf("Load(%d): %v", ask, err)
		}
		if got := loaded.Config().Workers; got != 3 {
			t.Errorf("Load(%d) runs %d workers, want the recorded 3", ask, got)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("Load(%d) re-serializes differently", ask)
		}
	}
	for _, ask := range []int{1, 2, 4} {
		if _, err := Load(bytes.NewReader(buf.Bytes()), ask); !errors.Is(err, ErrWorkersMismatch) {
			t.Errorf("Load(%d) of a 3-worker checkpoint: %v, want ErrWorkersMismatch", ask, err)
		}
	}
}

// TestCheckpointWorkersFieldIsOptional: a config payload that ends after
// Shards — what sharded checkpoints, replication bases and files written
// before the field existed contain — reads as "no recorded count", and a
// sharded checkpoint's bytes do not depend on the worker count at all.
func TestCheckpointWorkersFieldIsOptional(t *testing.T) {
	fail := func(format string, args ...any) error { return fmt.Errorf(format, args...) }
	cfg := Config{InputDim: 60, HiddenDim: 16, OutputDim: 20, Hash: DWTA, K: 2, L: 8, Shards: 2, Seed: 79}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, recorded := range []int{0, 5} {
		var payload bytes.Buffer
		if err := writeConfigPayload(&payload, &cfg, 7, 1, 50, recorded); err != nil {
			t.Fatal(err)
		}
		got, step, _, _, err := parseConfigPayload(bytes.NewReader(payload.Bytes()), fail)
		if err != nil {
			t.Fatal(err)
		}
		if got.Workers != recorded || got.Shards != 2 || step != 7 {
			t.Errorf("recorded %d: parsed Workers=%d Shards=%d step=%d", recorded, got.Workers, got.Shards, step)
		}
	}

	var saved [2]bytes.Buffer
	for i, w := range []int{1, 2} {
		c := cfg
		c.Workers = w
		n, err := New(&c)
		if err != nil {
			t.Fatal(err)
		}
		trainN(t, n, newPlanted(60, 20, 5, 31), 5, 16)
		if err := n.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Fatal("a sharded checkpoint's bytes depend on the worker count")
	}
	if _, err := Load(bytes.NewReader(saved[0].Bytes()), 4); err != nil {
		t.Fatalf("sharded checkpoint refused at another worker count: %v", err)
	}
}

// TestCheckpointRetiredWordIgnored: config word 16 once held a gradient
// locking flag that never changed a stored weight. A checkpoint with it set
// loads, re-saves with the word 0 and every other byte unchanged, and trains
// exactly as the same checkpoint without it.
func TestCheckpointRetiredWordIgnored(t *testing.T) {
	n, p := fuzzNet(t, func(*Config) {})
	plain := saved(t, n)
	flagged, err := Load(bytes.NewReader(withRetiredWord(t, plain)), 0)
	if err != nil {
		t.Fatalf("checkpoint with the retired word set refused: %v", err)
	}
	if !bytes.Equal(saved(t, flagged), plain) {
		t.Error("it re-saves to other bytes than the same checkpoint with the word 0")
	}
	ref, err := Load(bytes.NewReader(plain), 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := p.batch(16)
	flagged.TrainBatch(batch)
	ref.TrainBatch(batch)
	got := saved(t, flagged)
	if binary.LittleEndian.Uint64(section(t, got, secConfig)[16*8:]) != 0 {
		t.Error("the trained model re-saves the retired word set")
	}
	if !bytes.Equal(got, saved(t, ref)) {
		t.Error("after one batch it saves other bytes than the same checkpoint with the word 0")
	}
}
