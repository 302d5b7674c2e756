package train

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/slide-cpu/slide/internal/dataset"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// testNet builds a small deterministic single-worker network.
func testNet(t *testing.T, d *dataset.Dataset) *network.Network {
	t.Helper()
	cfg := network.Config{
		InputDim: d.Features, HiddenDim: 16, OutputDim: d.Labels,
		Hash: network.DWTA, K: 3, L: 6,
		Workers: 1, Seed: 5, LR: 1e-3,
	}
	net, err := network.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	train, _, err := dataset.Generate(dataset.Amazon670K(0.0003, 3))
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func memSource(t *testing.T, d *dataset.Dataset, batch int) *dataset.MemorySource {
	t.Helper()
	src, err := dataset.NewMemorySource(d, batch, sparse.Coalesced)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// netBytes serializes the network for bit-identical comparison.
func netBytes(t *testing.T, n *network.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunMatchesLegacyEpochLoop: a session over a MemorySource must be
// bit-identical to hand-driving the iterator with the legacy seeding rule.
func TestRunMatchesLegacyEpochLoop(t *testing.T) {
	d := testData(t)
	const batch, epochs = 64, 2

	legacy := testNet(t, d)
	for e := 0; e < epochs; e++ {
		it := d.Iter(batch, sparse.Coalesced, uint64(legacy.Step())+1)
		for {
			b, ok := it.Next()
			if !ok {
				break
			}
			legacy.TrainBatch(b)
		}
	}

	viaRun := testNet(t, d)
	rep, err := Run(context.Background(), viaRun, memSource(t, d, batch), Config{Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopCompleted || rep.Epochs != epochs {
		t.Fatalf("report %+v, want %d completed epochs", rep, epochs)
	}
	if rep.Steps != viaRun.Step() {
		t.Fatalf("report steps %d, net steps %d", rep.Steps, viaRun.Step())
	}
	if !bytes.Equal(netBytes(t, legacy), netBytes(t, viaRun)) {
		t.Fatal("session weights differ from the legacy epoch loop")
	}
}

// TestRunResumeBitIdentical: train to a mid-epoch checkpoint, load it, and
// continue with Resume — the final weights must equal an uninterrupted run.
func TestRunResumeBitIdentical(t *testing.T) {
	d := testData(t)
	const batch = 64
	src := memSource(t, d, batch)
	bpe := src.BatchesPerEpoch()
	if bpe < 3 {
		t.Fatalf("workload too small: %d batches/epoch", bpe)
	}
	// N lands mid-epoch (second pass, partway through); N+M spans a third.
	n := int64(bpe + bpe/2)
	m := int64(bpe)

	// Uninterrupted N+M steps.
	full := testNet(t, d)
	if _, err := Run(context.Background(), full, src, Config{MaxSteps: n + m}); err != nil {
		t.Fatal(err)
	}

	// Interrupted: N steps with a checkpoint exactly at N.
	ckpt := filepath.Join(t.TempDir(), "ckpt.slide")
	first := testNet(t, d)
	rep, err := Run(context.Background(), first, src, Config{
		MaxSteps: n, CheckpointPath: ckpt, CheckpointEvery: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopMaxSteps || rep.LastCheckpoint != n {
		t.Fatalf("report %+v, want max-steps stop with checkpoint at %d", rep, n)
	}

	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := network.Load(f, 0)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != n {
		t.Fatalf("checkpoint at step %d, want %d", resumed.Step(), n)
	}
	if _, err := Run(context.Background(), resumed, src, Config{MaxSteps: n + m, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != n+m {
		t.Fatalf("resumed to step %d, want %d", resumed.Step(), n+m)
	}
	if !bytes.Equal(netBytes(t, full), netBytes(t, resumed)) {
		t.Fatal("resumed weights differ from the uninterrupted run")
	}
}

// TestRunCancellation: cancelling the context stops the session gracefully
// and leaves a loadable final checkpoint.
func TestRunCancellation(t *testing.T) {
	d := testData(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt.slide")
	net := testNet(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	rep, err := Run(ctx, net, memSource(t, d, 64), Config{
		Epochs:         0,                           // unbounded: only the cancel stops it
		CheckpointPath: ckpt, CheckpointEvery: 1000, // schedule never fires mid-run
		Hooks: Hooks{OnBatch: func(bi BatchInfo) {
			steps++
			if steps == 3 {
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatalf("cancellation must be graceful, got error %v", err)
	}
	if rep.Reason != StopCanceled || rep.Steps != 3 {
		t.Fatalf("report %+v, want canceled after 3 steps", rep)
	}
	// The final checkpoint must exist and load at the cancelled step.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatalf("no final checkpoint after cancel: %v", err)
	}
	back, err := network.Load(f, 0)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if back.Step() != 3 {
		t.Fatalf("checkpoint at step %d, want 3", back.Step())
	}
}

// TestRunHooksAndSchedules: hook ordering, LR schedule delivery, snapshot
// and checkpoint schedules, and early stopping.
func TestRunHooksAndSchedules(t *testing.T) {
	d := testData(t)
	net := testNet(t, d)
	src := memSource(t, d, 64)
	bpe := src.BatchesPerEpoch()
	ckpt := filepath.Join(t.TempDir(), "ckpt.slide")

	var batches, epochs, ckpts int
	var snaps []int64
	var lrs []float64
	rep, err := Run(context.Background(), net, src, Config{
		Epochs:          2,
		LR:              func(step int64) float64 { return 1e-3 / float64(step) },
		CheckpointPath:  ckpt,
		CheckpointEvery: 2,
		SnapshotEvery:   3,
		Hooks: Hooks{
			OnBatch: func(bi BatchInfo) {
				batches++
				lrs = append(lrs, bi.LR)
				if bi.Step != int64(batches) {
					t.Errorf("batch %d reports step %d", batches, bi.Step)
				}
			},
			OnEpoch: func(ei EpochInfo) {
				epochs++
				if ei.Batches != bpe {
					t.Errorf("epoch %d ran %d batches, want %d", ei.Epoch, ei.Batches, bpe)
				}
			},
			OnCheckpoint: func(ci CheckpointInfo) { ckpts++ },
			OnSnapshot:   func(step int64) { snaps = append(snaps, step) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopCompleted {
		t.Fatalf("reason %v, want completed", rep.Reason)
	}
	if batches != 2*bpe || epochs != 2 {
		t.Fatalf("saw %d batches / %d epochs, want %d / 2", batches, epochs, 2*bpe)
	}
	for i, lr := range lrs {
		want := 1e-3 / float64(i+1)
		if lr != want {
			t.Fatalf("step %d: LR %g, want %g", i+1, lr, want)
		}
	}
	wantCkpts := bpe * 2 / 2
	if int64(batches)%2 != 0 {
		wantCkpts++ // the final flush
	}
	if ckpts != wantCkpts {
		t.Fatalf("%d checkpoints, want %d", ckpts, wantCkpts)
	}
	for i, s := range snaps {
		if s != int64(3*(i+1)) {
			t.Fatalf("snapshot %d at step %d, want %d", i, s, 3*(i+1))
		}
	}
}

// TestRunEarlyStop: a loss that never improves stops after patience passes.
func TestRunEarlyStop(t *testing.T) {
	d := testData(t)
	net := testNet(t, d)
	// Absurd MinDelta: no pass can improve by 1e9, so patience counts
	// straight up from the second pass on.
	rep, err := Run(context.Background(), net, memSource(t, d, 64), Config{
		Epochs:            100,
		EarlyStopPatience: 2,
		EarlyStopMinDelta: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != StopEarly {
		t.Fatalf("reason %v, want early-stop", rep.Reason)
	}
	if rep.Epochs != 3 { // pass 0 sets best; passes 1,2 exhaust patience
		t.Fatalf("ran %d epochs, want 3", rep.Epochs)
	}
}

// TestRunValidation: configuration errors are reported before any training.
func TestRunValidation(t *testing.T) {
	d := testData(t)
	net := testNet(t, d)
	src := memSource(t, d, 64)
	cases := []Config{
		{Epochs: -1},
		{MaxSteps: -2},
		{CheckpointEvery: 5},                 // path missing
		{CheckpointPath: "x"},                // every missing
		{SnapshotEvery: 3},                   // hook missing
		{EarlyStopPatience: -1},              // negative patience
		{Epochs: 1, EarlyStopMinDelta: -0.5}, // negative delta
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), net, src, cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if net.Step() != 0 {
		t.Fatal("validation failures must not train")
	}
}

// nonSaver wraps a Stepper hiding its Saver/LRSetter implementations.
type nonSaver struct{ s Stepper }

func (n nonSaver) TrainBatch(b sparse.Batch) network.BatchStats { return n.s.TrainBatch(b) }
func (n nonSaver) Step() int64                                  { return n.s.Step() }

// TestRunCapabilityChecks: schedules requiring Save/SetLR are rejected for
// steppers without them.
func TestRunCapabilityChecks(t *testing.T) {
	d := testData(t)
	net := nonSaver{testNet(t, d)}
	src := memSource(t, d, 64)
	if _, err := Run(context.Background(), net, src, Config{
		CheckpointPath: "x", CheckpointEvery: 1,
	}); err == nil {
		t.Error("checkpointing accepted for a non-Saver stepper")
	}
	if _, err := Run(context.Background(), net, src, Config{
		LR: func(int64) float64 { return 1 },
	}); err == nil {
		t.Error("LR schedule accepted for a non-LRSetter stepper")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
