package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/slide-cpu/slide/internal/harness"
	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/internal/sparse"
)

// The sharded trainer's contract is that the worker count is purely an
// execution resource: the shard count S is a model property, and a batch
// runs as barrier-separated phases whose reductions are either shard-owned,
// canonical-ordered, or elementwise-disjoint. These tests hold it to the
// strongest possible reading — not statistical equivalence like the kernel
// modes test, but bit-identity of weights, checkpoint bytes, delta payloads
// and served scores for every worker count.

// shardedRun trains cfg for steps batches from the workload's deterministic
// iterator, publishing a base snapshot halfway and a delta at the end, and
// returns every byte-comparable artifact of the run.
type shardedArtifacts struct {
	checkpoint []byte    // full Save bytes after the last step
	baseParts  [5][]byte // config, hidden, middle, output, tables at half-way
	deltaParts [4][]byte // hidden, middle, output, tables (nil without rebuild)
	deltaSteps [2]int64
	scores     []float32 // concatenated eval scores from the final snapshot
	preds      []int32   // concatenated top-3 ids from the final snapshot
}

// batchFeeder yields an endless deterministic batch stream: the workload's
// iterator, reseeded by absolute step index when it runs dry — so the batch
// at step s is a pure function of (workload, seed, s), and two runs (or a
// checkpoint resume skipping ahead) consume identical data.
func batchFeeder(t *testing.T, w *harness.Workload, opts harness.Options) func() sparse.Batch {
	t.Helper()
	it := w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed)
	step := 0
	return func() sparse.Batch {
		b, ok := it.Next()
		if !ok {
			it = w.Train.Iter(w.Batch, sparse.Coalesced, opts.Seed+uint64(step))
			if b, ok = it.Next(); !ok {
				t.Fatal("workload too small for the batch schedule")
			}
		}
		step++
		return b
	}
}

func shardedRun(t *testing.T, w *harness.Workload, opts harness.Options,
	prec layer.Precision, place layer.Placement, workers, shards, steps int) *shardedArtifacts {
	t.Helper()
	cfg := w.NetworkConfig(opts, prec, place)
	cfg.Workers = workers
	cfg.Shards = shards
	net, err := network.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableDeltaTracking()
	next := batchFeeder(t, w, opts)
	step := func() { net.TrainBatch(next()) }
	a := &shardedArtifacts{}
	for s := 0; s < steps/2; s++ {
		step()
	}
	base, d := net.SnapshotDelta()
	if d != nil {
		t.Fatal("first snapshot must be a full base, not a delta")
	}
	enc := func(f func(w *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a.baseParts[0] = enc(func(b *bytes.Buffer) error { return base.WriteBaseConfig(b) })
	a.baseParts[1] = enc(func(b *bytes.Buffer) error { return base.WriteHidden(b) })
	a.baseParts[2] = enc(func(b *bytes.Buffer) error { return base.WriteMiddle(b) })
	a.baseParts[3] = enc(func(b *bytes.Buffer) error { return base.WriteOutput(b) })
	a.baseParts[4] = enc(func(b *bytes.Buffer) error { return base.WriteTables(b) })
	for s := steps / 2; s < steps; s++ {
		step()
	}
	final, d := net.SnapshotDelta()
	if d == nil {
		t.Fatal("second snapshot must carry a delta")
	}
	a.deltaSteps = [2]int64{d.FromStep, d.ToStep}
	a.deltaParts[0] = enc(func(b *bytes.Buffer) error { return d.WriteHidden(b) })
	a.deltaParts[1] = enc(func(b *bytes.Buffer) error { return d.WriteMiddle(b) })
	a.deltaParts[2] = enc(func(b *bytes.Buffer) error { return d.WriteOutput(b) })
	if d.TablesChanged {
		a.deltaParts[3] = enc(func(b *bytes.Buffer) error { return d.WriteTables(b) })
	}
	a.checkpoint = enc(func(b *bytes.Buffer) error { return net.Save(b) })
	n := min(8, w.Test.Len())
	buf := make([]float32, cfg.OutputDim)
	for i := 0; i < n; i++ {
		final.Scores(w.Test.Sample(i), buf)
		a.scores = append(a.scores, buf...)
		a.preds = append(a.preds, final.Predict(w.Test.Sample(i), 3)...)
	}
	return a
}

// TestShardedWorkerCountDeterminism trains the same sharded model at W in
// {1, 2, 4, 8} across the Precision x Placement matrix and requires every
// artifact — checkpoint bytes, base-snapshot payloads, delta payloads, and
// served scores/rankings — to be bit-identical to the W=1 run. 20 steps with
// RebuildEvery well inside that window exercises the scheduled per-shard
// rebuild (so the delta carries tables) under every worker count.
func TestShardedWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full worker-count matrix; skipped in -short (race CI runs the focused lane)")
	}
	opts := harness.Options{Scale: 1e-6, Epochs: 1, EvalPointsPerEpoch: 1,
		EvalSamples: 60, Workers: 1, Seed: 1234}
	ws, err := harness.Workloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0] // Amazon-670K-like

	const steps = 20
	type combo struct {
		prec   layer.Precision
		place  layer.Placement
		shards int
	}
	var combos []combo
	for _, prec := range []layer.Precision{layer.FP32, layer.BF16Act, layer.BF16Both} {
		for _, place := range []layer.Placement{layer.Contiguous, layer.Scattered} {
			combos = append(combos, combo{prec, place, 3})
		}
	}
	// One shard: the sampler's lone set hashes on all W workers where the
	// sets of several shards take one worker each.
	combos = append(combos, combo{layer.FP32, layer.Contiguous, 1})
	for _, c := range combos {
		prec, place, shards := c.prec, c.place, c.shards
		name := fmt.Sprintf("%v/%v", prec, place)
		if shards == 1 {
			name += "/shards1"
		}
		t.Run(name, func(t *testing.T) {
			ref := shardedRun(t, w, opts, prec, place, 1, shards, steps)
			for _, workers := range []int{2, 4, 8} {
				got := shardedRun(t, w, opts, prec, place, workers, shards, steps)
				if !bytes.Equal(got.checkpoint, ref.checkpoint) {
					t.Errorf("W=%d: checkpoint bytes diverge from W=1 (%d vs %d bytes)",
						workers, len(got.checkpoint), len(ref.checkpoint))
				}
				for i := range ref.baseParts {
					if !bytes.Equal(got.baseParts[i], ref.baseParts[i]) {
						t.Errorf("W=%d: base payload %d diverges from W=1", workers, i)
					}
				}
				if got.deltaSteps != ref.deltaSteps {
					t.Errorf("W=%d: delta spans steps %v, W=1 spans %v", workers, got.deltaSteps, ref.deltaSteps)
				}
				for i := range ref.deltaParts {
					if !bytes.Equal(got.deltaParts[i], ref.deltaParts[i]) {
						t.Errorf("W=%d: delta payload %d diverges from W=1", workers, i)
					}
				}
				for i, s := range ref.scores {
					if got.scores[i] != s {
						t.Fatalf("W=%d: score %d is %g, W=1 scored %g", workers, i, got.scores[i], s)
					}
				}
				for i, p := range ref.preds {
					if got.preds[i] != p {
						t.Fatalf("W=%d: prediction %d is %d, W=1 predicted %d", workers, i, got.preds[i], p)
					}
				}
			}
		})
	}
}

// TestShardedCrossWorkerResume proves a sharded checkpoint is portable across
// worker counts: a checkpoint written at W=4 resumes at W=2 and the
// continuation is bit-identical — same final checkpoint bytes, and a replica
// fed the W=4 trainer's base + delta stream lands on the same scores as a
// snapshot of the resumed W=2 trainer.
func TestShardedCrossWorkerResume(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resume matrix; skipped in -short")
	}
	opts := harness.Options{Scale: 1e-6, Epochs: 1, EvalPointsPerEpoch: 1,
		EvalSamples: 60, Workers: 1, Seed: 4321}
	ws, err := harness.Workloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	const half, shards = 10, 4

	cfg := w.NetworkConfig(opts, layer.FP32, layer.Contiguous)
	cfg.Workers = 4
	cfg.Shards = shards
	net4, err := network.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	net4.EnableDeltaTracking()
	next4 := batchFeeder(t, w, opts)
	for s := 0; s < half; s++ {
		net4.TrainBatch(next4())
	}
	var ckpt bytes.Buffer
	if err := net4.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	base, _ := net4.SnapshotDelta()
	enc := func(f func(w *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	parts := network.BaseParts{
		Config: enc(func(b *bytes.Buffer) error { return base.WriteBaseConfig(b) }),
		Hidden: enc(func(b *bytes.Buffer) error { return base.WriteHidden(b) }),
		Middle: enc(func(b *bytes.Buffer) error { return base.WriteMiddle(b) }),
		Output: enc(func(b *bytes.Buffer) error { return base.WriteOutput(b) }),
		Tables: enc(func(b *bytes.Buffer) error { return base.WriteTables(b) }),
	}
	replica, err := network.NewPredictorFromBase(parts)
	if err != nil {
		t.Fatal(err)
	}
	if replica.ConfigChecksum() != base.ConfigChecksum() {
		t.Fatal("replica config fingerprint diverges from trainer")
	}

	// Resume the checkpoint at W=2 and replay the same continuation batches.
	net2, err := network.Load(bytes.NewReader(ckpt.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if net2.ShardCount() != shards {
		t.Fatalf("resumed network has %d shards, want %d", net2.ShardCount(), shards)
	}
	next2 := batchFeeder(t, w, opts)
	for s := 0; s < half; s++ { // skip the batches the checkpoint already saw
		next2()
	}
	for s := 0; s < half; s++ {
		net4.TrainBatch(next4())
		net2.TrainBatch(next2())
	}
	var f4, f2 bytes.Buffer
	if err := net4.Save(&f4); err != nil {
		t.Fatal(err)
	}
	if err := net2.Save(&f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f4.Bytes(), f2.Bytes()) {
		t.Errorf("resumed W=2 continuation checkpoint diverges from uninterrupted W=4 run")
	}

	// Replica path: apply the W=4 trainer's delta and compare against a
	// fresh snapshot of the resumed W=2 trainer — three routes to step 20
	// (direct, checkpoint resume, base+delta replication) must agree bitwise.
	_, d := net4.SnapshotDelta()
	if d == nil {
		t.Fatal("expected a delta after the continuation")
	}
	dparts := network.DeltaParts{
		FromStep: d.FromStep, ToStep: d.ToStep,
		Hidden: enc(func(b *bytes.Buffer) error { return d.WriteHidden(b) }),
		Middle: enc(func(b *bytes.Buffer) error { return d.WriteMiddle(b) }),
		Output: enc(func(b *bytes.Buffer) error { return d.WriteOutput(b) }),
	}
	if d.TablesChanged {
		dparts.Tables = enc(func(b *bytes.Buffer) error { return d.WriteTables(b) })
	}
	applied, err := replica.ApplyDelta(dparts)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := net2.Snapshot()
	if applied.Steps() != snap2.Steps() {
		t.Fatalf("replica at step %d, resumed trainer at %d", applied.Steps(), snap2.Steps())
	}
	sa := make([]float32, cfg.OutputDim)
	sb := make([]float32, cfg.OutputDim)
	for i := 0; i < min(8, w.Test.Len()); i++ {
		x := w.Test.Sample(i)
		applied.Scores(x, sa)
		snap2.Scores(x, sb)
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("sample %d score %d: replica %g vs resumed trainer %g", i, j, sa[j], sb[j])
			}
		}
	}
}
