package lsh

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/slide-cpu/slide/internal/platform"
)

func TestTableInsertQuery(t *testing.T) {
	tbl := NewTable(4, 8, FIFO, 1)
	if tbl.Buckets() != 16 {
		t.Fatalf("Buckets = %d, want 16", tbl.Buckets())
	}
	tbl.Insert(10, 3)
	tbl.Insert(11, 3)
	tbl.Insert(12, 19) // 19 & 15 == 3: same bucket
	got := tbl.Query(3)
	if len(got) != 3 {
		t.Fatalf("bucket has %d entries, want 3", len(got))
	}
	if got[0] != 10 || got[1] != 11 || got[2] != 12 {
		t.Errorf("bucket contents %v", got)
	}
	if len(tbl.Query(4)) != 0 {
		t.Error("empty bucket should return nothing")
	}
}

func TestTableFIFOEviction(t *testing.T) {
	tbl := NewTable(2, 3, FIFO, 1)
	for id := int32(0); id < 7; id++ {
		tbl.Insert(id, 0)
	}
	// Capacity 3, inserts 0..6: ring holds the 3 newest: 6, 4, 5 in ring
	// order (position = count % cap).
	got := tbl.Query(0)
	want := map[int32]bool{4: true, 5: true, 6: true}
	if len(got) != 3 {
		t.Fatalf("bucket size %d, want 3", len(got))
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("FIFO kept stale id %d (bucket %v)", id, got)
		}
	}
}

func TestTableReservoirBoundsAndCoverage(t *testing.T) {
	tbl := NewTable(2, 16, Reservoir, 42)
	n := int32(1000)
	for id := int32(0); id < n; id++ {
		tbl.Insert(id, 5)
	}
	got := tbl.Query(5)
	if len(got) != 16 {
		t.Fatalf("reservoir size %d, want 16", len(got))
	}
	// A uniform reservoir over 1000 inserts should not be dominated by the
	// first 16 (FIFO-never-evicts failure) nor by the last 16 (always
	// overwrite failure). Check it mixes early and late ids.
	early, late := 0, 0
	for _, id := range got {
		if id < 100 {
			early++
		}
		if id >= 900 {
			late++
		}
	}
	if early == 16 || late == 16 {
		t.Errorf("reservoir is degenerate: early=%d late=%d (%v)", early, late, got)
	}
}

func TestTableReservoirUniformity(t *testing.T) {
	// Aggregate over many independent tables: each of the 100 inserted ids
	// should appear with roughly equal frequency (cap/n = 0.2).
	trials := 400
	counts := make([]int, 100)
	for trial := 0; trial < trials; trial++ {
		tbl := NewTable(1, 20, Reservoir, uint64(trial)*2654435761)
		for id := int32(0); id < 100; id++ {
			tbl.Insert(id, 0)
		}
		for _, id := range tbl.Query(0) {
			counts[id]++
		}
	}
	// Expected 80 appearances per id (400 * 0.2); flag anything wildly off.
	for id, c := range counts {
		if c < 40 || c > 120 {
			t.Errorf("id %d kept %d times, expected near 80 (non-uniform reservoir)", id, c)
		}
	}
}

func TestTableClear(t *testing.T) {
	tbl := NewTable(3, 4, FIFO, 1)
	tbl.Insert(1, 0)
	tbl.Insert(2, 7)
	ne, stored := tbl.Occupancy()
	if ne != 2 || stored != 2 {
		t.Fatalf("occupancy %d/%d, want 2/2", ne, stored)
	}
	tbl.Clear()
	ne, stored = tbl.Occupancy()
	if ne != 0 || stored != 0 {
		t.Errorf("after Clear occupancy %d/%d, want 0/0", ne, stored)
	}
	// Table must be reusable after Clear with fresh FIFO positions.
	tbl.Insert(9, 0)
	if got := tbl.Query(0); len(got) != 1 || got[0] != 9 {
		t.Errorf("post-Clear insert broken: %v", got)
	}
}

func TestTableConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bits":   func() { NewTable(0, 4, FIFO, 1) },
		"huge bits":   func() { NewTable(31, 4, FIFO, 1) },
		"zero bucket": func() { NewTable(4, 0, FIFO, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBucketPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || Reservoir.String() != "reservoir" || BucketPolicy(9).String() != "unknown" {
		t.Error("BucketPolicy.String values wrong")
	}
}

func TestTableSetInsertAndQueryRoundTrip(t *testing.T) {
	d, err := NewDWTA(DWTAConfig{K: 2, L: 10, Dim: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTableSet(d, 64, FIFO, 9)
	rng := rand.New(rand.NewPCG(3, 4))

	n := 40
	weights := make([][]float32, n)
	for i := range weights {
		weights[i] = make([]float32, 32)
		for j := range weights[i] {
			weights[i][j] = float32(rng.NormFloat64())
		}
	}
	for i := range weights {
		ts.InsertDense(int32(i), weights[i])
	}

	// Querying with a stored vector must retrieve its own id (same hash =>
	// same buckets; capacity 64 is far above the 40 inserts).
	dedup := NewDedup(n)
	for i := range weights {
		dedup.Begin()
		found := false
		ts.QueryDense(weights[i], func(id int32) {
			if dedup.Seen(id) {
				return
			}
			if id == int32(i) {
				found = true
			}
		})
		if !found {
			t.Errorf("neuron %d not retrieved by its own weight vector", i)
		}
	}

	st := ts.Stats()
	if st.Tables != 10 || st.Stored == 0 {
		t.Errorf("stats look wrong: %+v", st)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestTableSetRebuildMatchesSerialInsert(t *testing.T) {
	d, err := NewDWTA(DWTAConfig{K: 2, L: 6, Dim: 16, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(31, 7))
	n := 100
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, 16)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64())
		}
	}

	serial := NewTableSet(d, 32, FIFO, 77)
	for i := 0; i < n; i++ {
		serial.InsertDense(int32(i), rows[i])
	}
	parallel := NewTableSet(d, 32, FIFO, 77)
	parallel.RebuildDense(n, 16, func(i int, _ []float32) []float32 { return rows[i] }, 4)

	// Same hasher, same insert order (rebuild inserts chunks in id order),
	// same seeds: bucket contents must be identical.
	for ti := range serial.tables {
		st, pt := serial.tables[ti], parallel.tables[ti]
		for b := 0; b < st.Buckets(); b++ {
			sb, pb := st.Query(uint32(b)), pt.Query(uint32(b))
			if len(sb) != len(pb) {
				t.Fatalf("table %d bucket %d: serial %v parallel %v", ti, b, sb, pb)
			}
			for k := range sb {
				if sb[k] != pb[k] {
					t.Fatalf("table %d bucket %d: serial %v parallel %v", ti, b, sb, pb)
				}
			}
		}
	}
}

// rebuildDim is the row width of rebuildFixture.
const rebuildDim = 24

// rebuildHashers are the kernel-backed families a rebuild fans out over.
func rebuildHashers(t *testing.T) map[string]Hasher {
	return map[string]Hasher{
		"simhash": mustSimHash(t, SimHashConfig{K: 5, L: 8, Dim: rebuildDim, Seed: 21}),
		"dwta":    mustDWTA(t, DWTAConfig{K: 3, L: 8, Dim: rebuildDim, Seed: 21}),
	}
}

// rebuildFixture is a set fed by h over n rows, more than one rebuild chunk,
// so a rebuild exercises the chunk loop, the worker striping and the hash
// kernels together.
func rebuildFixture(t *testing.T, h Hasher, n int) (*TableSet, func(i int, buf []float32) []float32) {
	t.Helper()
	rng := rand.New(rand.NewPCG(41, 9))
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, rebuildDim)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64())
		}
	}
	// Rows pass through the per-worker buffer, as BF16 weights do.
	row := func(i int, buf []float32) []float32 {
		copy(buf, rows[i])
		return buf[:rebuildDim]
	}
	return NewTableSet(h, 16, FIFO, 3), row
}

func serializeSet(t *testing.T, ts *TableSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTableSetRebuildIndependentOfWorkers: table contents are a pure
// function of the rows — the hashing worker count, and scratch left by an
// earlier rebuild at another count or range, must not show.
func TestTableSetRebuildIndependentOfWorkers(t *testing.T) {
	const n = 2*rebuildChunk + 300
	for name, h := range rebuildHashers(t) {
		ts, row := rebuildFixture(t, h, n)
		ts.RebuildDense(n, 24, row, 1)
		want := serializeSet(t, ts)
		for _, workers := range []int{2, 3, 4, 7, 0} {
			ts.RebuildRange(100, 200, 24, row, workers) // dirty the scratch
			ts.RebuildRange(0, n, 24, row, workers)
			if !bytes.Equal(serializeSet(t, ts), want) {
				t.Errorf("%s: rebuild with %d workers differs from the single-worker rebuild", name, workers)
			}
		}
	}
}

// TestTableSetRebuildSteadyStateAllocs: the fingerprint chunk, row buffers
// and bucket storage are kept between rebuilds; a repeat rebuild allocates
// only the per-chunk task closure.
func TestTableSetRebuildSteadyStateAllocs(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops the hashers' scratch at random")
	}
	const n = 2*rebuildChunk + 300 // three chunks
	for name, h := range rebuildHashers(t) {
		ts, row := rebuildFixture(t, h, n)
		ts.RebuildDense(n, 24, row, 2)
		if a := testing.AllocsPerRun(5, func() { ts.RebuildDense(n, 24, row, 2) }); a > 3 {
			t.Errorf("%s: repeat rebuild of three chunks allocates %.0f objects, want at most 3", name, a)
		}
	}
}

func TestTableSetRebuildClearsOldEntries(t *testing.T) {
	d, err := NewDWTA(DWTAConfig{K: 2, L: 4, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTableSet(d, 16, FIFO, 2)
	ts.InsertDense(999, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	ts.RebuildDense(3, 8, func(i int, _ []float32) []float32 {
		return []float32{float32(i), 1, 2, 3, 4, 5, 6, 7}
	}, 1)
	st := ts.Stats()
	if st.Stored != 3*4 { // 3 neurons x 4 tables
		t.Errorf("stored %d ids after rebuild, want 12 (stale id leaked?)", st.Stored)
	}
}

func TestTableSetConcurrentQueryRebuild(t *testing.T) {
	// Stress rebuilds racing queries under -race: correctness requirement is
	// only "no crash, no torn data" — returned ids must always be valid.
	d, err := NewDWTA(DWTAConfig{K: 2, L: 8, Dim: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTableSet(d, 8, FIFO, 4)
	n := 50
	rows := make([][]float32, n)
	rng := rand.New(rand.NewPCG(8, 9))
	for i := range rows {
		rows[i] = make([]float32, 24)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64())
		}
	}
	ts.RebuildDense(n, 24, func(i int, _ []float32) []float32 { return rows[i] }, 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := rows[w]
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts.QueryDense(q, func(id int32) {
					if id < 0 || id >= int32(n) {
						t.Errorf("invalid id %d from query", id)
					}
				})
			}
		}(w)
	}
	for r := 0; r < 5; r++ {
		ts.RebuildDense(n, 24, func(i int, _ []float32) []float32 { return rows[i] }, 2)
	}
	close(stop)
	wg.Wait()
}

func TestTableSetCloneIsIndependent(t *testing.T) {
	d, err := NewDWTA(DWTAConfig{K: 2, L: 6, Dim: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTableSet(d, 32, FIFO, 3)
	rng := rand.New(rand.NewPCG(5, 6))
	n := 30
	weights := make([][]float32, n)
	for i := range weights {
		weights[i] = make([]float32, 16)
		for j := range weights[i] {
			weights[i][j] = float32(rng.NormFloat64())
		}
	}
	ts.RebuildDense(n, 16, func(i int, _ []float32) []float32 { return weights[i] }, 2)

	collect := func(set *TableSet, q []float32) map[int32]bool {
		got := map[int32]bool{}
		set.QueryDense(q, func(id int32) { got[id] = true })
		return got
	}
	clone := ts.Clone()
	for i := range weights {
		a, b := collect(ts, weights[i]), collect(clone, weights[i])
		if len(a) != len(b) {
			t.Fatalf("query %d: clone returned %d ids, original %d", i, len(b), len(a))
		}
		for id := range a {
			if !b[id] {
				t.Fatalf("query %d: clone missing id %d", i, id)
			}
		}
	}

	// Rebuild the original over half the neurons: the clone must keep
	// serving the old contents.
	ts.RebuildDense(n/2, 16, func(i int, _ []float32) []float32 { return weights[i] }, 2)
	if !collect(clone, weights[n-1])[int32(n-1)] {
		t.Error("clone lost an id after the original was rebuilt")
	}
	if collect(ts, weights[n-1])[int32(n-1)] {
		t.Error("original still serves an id dropped by its rebuild")
	}

	// Inserting into the clone must not leak into the original.
	extra := make([]float32, 16)
	for j := range extra {
		extra[j] = float32(rng.NormFloat64())
	}
	clone.InsertDense(int32(999), extra)
	if collect(ts, extra)[999] {
		t.Error("insert into clone reached the original")
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup(10)
	d.Begin()
	if d.Seen(3) {
		t.Error("fresh id reported seen")
	}
	if !d.Seen(3) {
		t.Error("repeat id not reported seen")
	}
	d.Begin()
	if d.Seen(3) {
		t.Error("new round should reset seen state")
	}
}

func TestDedupWrapAround(t *testing.T) {
	d := NewDedup(4)
	d.cur = ^uint32(0) - 1
	d.Begin() // cur = max
	d.Seen(2)
	d.Begin() // wraps: must clear stamps and restart at 1
	if d.cur != 1 {
		t.Fatalf("cur after wrap = %d, want 1", d.cur)
	}
	if d.Seen(2) {
		t.Error("stale stamp survived wrap-around")
	}
}
