package slide

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fuzzRetain is the ring size the fuzz target exercises: primary + two
// fallbacks, the smallest shape with interesting fall-through behavior.
const fuzzRetain = 3

// ringSlot restates the ring naming of ringPaths independently, as the
// fuzz oracle: base, base.1, base.2, …
func ringSlot(base string, i int) string {
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s.%d", base, i)
}

var (
	ringOnce  sync.Once
	ringSlots [][]byte // pristine checkpoint bytes, index = ring slot (0 newest)
	ringSteps []int64  // step count each slot encodes
	ringErr   error
)

// ringTemplate trains a tiny deterministic model for fuzzRetain steps with a
// checkpoint every step, capturing each ring slot's valid bytes once. Every
// fuzz iteration copies these into a fresh directory before corrupting them.
func ringTemplate() ([][]byte, []int64, error) {
	ringOnce.Do(func() {
		dir, err := os.MkdirTemp("", "slide-fuzz-ring")
		if err != nil {
			ringErr = err
			return
		}
		defer os.RemoveAll(dir)
		ckpt := filepath.Join(dir, "ck.slide")
		ds, _, err := AmazonLike(1e-9, 3)
		if err != nil {
			ringErr = err
			return
		}
		m, err := New(ds.Features(), 16, ds.NumLabels(),
			WithDWTA(3, 8),
			WithLearningRate(1e-3),
			WithWorkers(1),
			WithSeed(17))
		if err != nil {
			ringErr = err
			return
		}
		src, err := NewDatasetSource(ds, 16)
		if err != nil {
			ringErr = err
			return
		}
		tr, err := NewTrainer(m, src,
			WithEpochs(0), WithMaxSteps(fuzzRetain),
			WithCheckpoints(ckpt, 1), WithCheckpointRetain(fuzzRetain))
		if err != nil {
			ringErr = err
			return
		}
		if _, err := tr.Run(context.Background()); err != nil {
			ringErr = err
			return
		}
		for i := 0; i < fuzzRetain; i++ {
			raw, err := os.ReadFile(ringSlot(ckpt, i))
			if err != nil {
				ringErr = err
				return
			}
			mi, err := Load(bytes.NewReader(raw))
			if err != nil {
				ringErr = fmt.Errorf("template slot %d does not load: %w", i, err)
				return
			}
			ringSlots = append(ringSlots, raw)
			ringSteps = append(ringSteps, mi.Steps())
		}
	})
	return ringSlots, ringSteps, ringErr
}

// FuzzLoadLastGood corrupts a valid retention ring under fuzzer control —
// per slot: leave pristine, delete, truncate, flip one bit, or smash the
// magic — and asserts the recovery invariant: LoadLastGood returns the
// newest slot that loads cleanly (bit-identical to the pristine template,
// i.e. a damaged checkpoint never loads), or an error when no slot does.
func FuzzLoadLastGood(f *testing.F) {
	f.Add([]byte{0, 0, 0})            // pristine ring
	f.Add([]byte{1, 0, 0})            // newest missing
	f.Add([]byte{2, 30, 3, 40, 2, 0}) // truncated, bit-flipped, fall to oldest
	f.Add([]byte{1, 1, 1})            // all missing
	f.Add([]byte{4, 4, 4})            // all smashed
	f.Add([]byte{2, 0, 2, 0, 2, 0})   // all truncated to zero bytes
	f.Add([]byte{3, 200, 7, 0, 1})    // deep bit flip in the newest
	f.Fuzz(func(t *testing.T, ops []byte) {
		slots, steps, err := ringTemplate()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ck.slide")

		k := 0
		next := func() byte {
			if k < len(ops) {
				b := ops[k]
				k++
				return b
			}
			return 0
		}
		pristine := make([]bool, fuzzRetain)
		for i := 0; i < fuzzRetain; i++ {
			b := append([]byte(nil), slots[i]...)
			write := true
			switch next() % 5 {
			case 0:
				pristine[i] = true
			case 1:
				write = false // missing slot
			case 2: // truncate to a fuzzer-chosen fraction (possibly empty)
				b = b[:int(next())*len(b)/256]
			case 3: // flip one fuzzer-chosen bit
				off := int(next()) * len(b) / 256
				b[off] ^= 1 << (next() % 8)
			case 4: // smash the magic
				copy(b, "SLIDnope")
			}
			if write {
				if err := os.WriteFile(ringSlot(ckpt, i), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}

		m, used, err := LoadLastGood(ckpt, fuzzRetain)
		if err != nil {
			// Refusal must mean no pristine slot existed: a valid checkpoint
			// may never be skipped.
			for i, ok := range pristine {
				if ok {
					t.Fatalf("LoadLastGood refused a ring with pristine slot %d: %v", i, err)
				}
			}
			return
		}
		// Success must name a real slot holding exactly the template bytes —
		// a corrupted slot loading (or a pristine one re-serializing
		// differently) both fail the bit-compare.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fuzzRetain; i++ {
			if used != ringSlot(ckpt, i) {
				continue
			}
			if !bytes.Equal(buf.Bytes(), slots[i]) {
				t.Fatalf("slot %d loaded but re-serializes differently: corrupt load", i)
			}
			if m.Steps() != steps[i] {
				t.Fatalf("slot %d loaded with step %d, want %d", i, m.Steps(), steps[i])
			}
			// Every newer slot must be damaged or absent, or it should have won.
			for j := 0; j < i; j++ {
				if pristine[j] {
					t.Fatalf("slot %d served while newer pristine slot %d exists", i, j)
				}
			}
			return
		}
		t.Fatalf("LoadLastGood returned unknown path %q", used)
	})
}
