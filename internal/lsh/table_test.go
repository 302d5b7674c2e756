package lsh

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/slide-cpu/slide/internal/platform"
)

// zeros is n fingerprints of bucket 0.
func zeros(n int) []uint32 { return make([]uint32, n) }

func TestTableInsertQuery(t *testing.T) {
	tbl := NewTable(4, 8, FIFO, 1)
	if tbl.Buckets() != 16 {
		t.Fatalf("Buckets = %d, want 16", tbl.Buckets())
	}
	tbl.Build(10, []uint32{3, 3, 19}) // 19 & 15 == 3: same bucket
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
	tbl.Build(0, zeros(7))
	// Capacity 3, ids 0..6: the ring holds the 3 newest, 6, 4, 5 in ring
	// order (position = count % cap).
	if got := tbl.Query(0); !slices.Equal(got, []int32{6, 4, 5}) {
		t.Fatalf("FIFO bucket %v, want [6 4 5]", got)
	}
}

func TestTableReservoirBoundsAndCoverage(t *testing.T) {
	tbl := NewTable(2, 16, Reservoir, 42)
	hs := zeros(1000)
	for i := range hs {
		hs[i] = 5
	}
	tbl.Build(0, hs)
	got := tbl.Query(5)
	if len(got) != 16 {
		t.Fatalf("reservoir size %d, want 16", len(got))
	}
	// A uniform reservoir over 1000 arrivals should not be dominated by the
	// first 16 (never-evicts failure) nor by the last 16 (always-overwrite
	// failure). Check it mixes early and late ids.
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
	// Aggregate over many independent tables: each of the 100 ids should
	// appear with roughly equal frequency (cap/n = 0.2).
	trials := 400
	counts := make([]int, 100)
	for trial := 0; trial < trials; trial++ {
		tbl := NewTable(1, 20, Reservoir, uint64(trial)*2654435761)
		tbl.Build(0, zeros(100))
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

// TestTableClear: a Build starts from an empty table — nothing of the
// previous contents, counts or ring positions survives it.
func TestTableClear(t *testing.T) {
	tbl := NewTable(3, 4, FIFO, 1)
	tbl.Build(1, []uint32{0, 7, 0, 0, 0, 0, 0})
	ne, stored := tbl.Occupancy()
	if ne != 2 || stored != 5 {
		t.Fatalf("occupancy %d/%d, want 2/5", ne, stored)
	}
	tbl.Build(9, []uint32{0})
	if got := tbl.Query(0); len(got) != 1 || got[0] != 9 {
		t.Errorf("rebuilt bucket %v, want [9]", got)
	}
	if ne, stored = tbl.Occupancy(); ne != 1 || stored != 1 || tbl.counts[0] != 1 || tbl.counts[7] != 0 {
		t.Errorf("after the rebuild occupancy %d/%d counts %v, want 1/1 and one arrival", ne, stored, tbl.counts)
	}
	tbl.Build(0, nil)
	if ne, stored = tbl.Occupancy(); ne != 0 || stored != 0 || len(tbl.Query(0)) != 0 {
		t.Errorf("after an empty Build occupancy %d/%d, want 0/0", ne, stored)
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

// gaussRows is a fixed pseudo-random n × dim matrix.
func gaussRows(n, dim int, seed, stream uint64) [][]float32 {
	rng := rand.New(rand.NewPCG(seed, stream))
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim]
	}
	return rows
}

// direct adapts rows to RebuildRange's row callback without using the buffer.
func direct(rows [][]float32) func(i int, _ []float32) []float32 {
	return func(i int, _ []float32) []float32 { return rows[i] }
}

// collectDense hashes act and returns the deduplicated candidates, the way
// the network samples.
func collectDense(ts *TableSet, act []float32, d *Dedup) []int32 {
	hs := make([]uint32, ts.Tables())
	ts.HashDense(act, hs)
	d.Begin()
	return ts.Collect(hs, d, 0, nil, 0)
}

func TestTableSetInsertAndQueryRoundTrip(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 10, Dim: 32, Seed: 5})
	ts := NewTableSet(d, 64, FIFO, 9)
	n := 40
	weights := gaussRows(n, 32, 3, 4)
	ts.RebuildDense(n, 32, direct(weights), 1)

	// Querying with a stored vector must retrieve its own id (same hash =>
	// same buckets; capacity 64 is far above the 40 rows).
	dedup := NewDedup(n)
	for i := range weights {
		if !slices.Contains(collectDense(ts, weights[i], dedup), int32(i)) {
			t.Errorf("neuron %d not retrieved by its own weight vector", i)
		}
	}

	st := ts.Stats()
	if st.Tables != 10 || st.Stored != 10*n {
		t.Errorf("stats look wrong: %+v", st)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestTableSetRebuildMatchesSerialInsert(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 6, Dim: 16, Seed: 15})
	n := 100
	rows := gaussRows(n, 16, 31, 7)
	ts := NewTableSet(d, 32, FIFO, 77)
	serial := refRebuild(ts, 0, n, func(i int) []float32 { return rows[i] })
	ts.RebuildDense(n, 16, direct(rows), 4)

	// Same hasher, same ids in the same order, same seeds: bucket contents
	// and lifetime counts must be identical.
	for ti, tbl := range ts.tables {
		if !bytes.Equal(tableBytes(t, tbl), refBytes(t, serial[ti])) {
			t.Fatalf("table %d: rebuild differs from serial insertion", ti)
		}
	}
}

// TestTableSetGoldenBytes pins the serialized tables of a rebuild over fixed
// pseudo-random rows at the two shapes the benchmark trains (amazon-s: DWTA
// K 4 L 32 over 13,401 × 128; text8-s: SimHash K 7 L 20 over 5,077 × 200)
// and at capacities that make both policies evict. The literals were
// recorded with the bucket-of-slices tables at commit 1e0183e, before the
// flat layout existed: table bytes did not move.
func TestTableSetGoldenBytes(t *testing.T) {
	dwta := mustDWTA(t, DWTAConfig{K: 4, L: 32, Dim: 128, Seed: 17})
	simhash := mustSimHash(t, SimHashConfig{K: 7, L: 20, Dim: 200, Seed: 19})
	for _, c := range []struct {
		name      string
		h         Hasher
		n, dim    int
		bucketCap int
		policy    BucketPolicy
		want      string
	}{
		{"dwta-amazon", dwta, 13401, 128, 128, FIFO, "21cfbb03c8746a2d400c90ef439ab25c118abc5781c1cc0a9c2ee637d1065f72"},
		{"simhash-text8", simhash, 5077, 200, 128, FIFO, "0d9d13c05fa493186333c8bbf48ca4ca58824f66a189c2ad148fa915be139f51"},
		{"dwta-amazon-reservoir2", dwta, 13401, 128, 2, Reservoir, "0580ef566081505b8751856ac57f3f9ad83c64f91ef2bd47d0a964b6c23bb86d"},
		{"simhash-text8-fifo16", simhash, 5077, 200, 16, FIFO, "054bfb4269950d5d9a920812824a8768a2c6f62da277d51bb23e3bd4b5b2da61"},
		{"simhash-text8-reservoir16", simhash, 5077, 200, 16, Reservoir, "c7c2167d431fcc5403064596cdba2f7f317bf42ad3d07465898551c6289f1f94"},
	} {
		rows := gaussRows(c.n, c.dim, 23, 0x51de)
		ts := NewTableSet(c.h, c.bucketCap, c.policy, 29)
		ts.RebuildDense(c.n, c.dim, direct(rows), 2)
		sum := sha256.Sum256(serializeSet(t, ts))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: serialized tables hash to %s, want %s (%v)", c.name, got, c.want, ts.Stats())
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

// fixtureRows are the rows rebuildFixture feeds.
func fixtureRows(n int) [][]float32 { return gaussRows(n, rebuildDim, 41, 9) }

// rebuildFixture is a set fed by h over n rows that pass through the
// per-worker buffer, as BF16 weights do, so a rebuild exercises the worker
// striping, the row buffers and the hash kernels together.
func rebuildFixture(t *testing.T, h Hasher, n int) (*TableSet, func(i int, buf []float32) []float32) {
	t.Helper()
	rows := fixtureRows(n)
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
// function of the rows — the worker count (one, fewer than tables, more than
// tables, GOMAXPROCS) and scratch left by an earlier rebuild at another
// count or range must not show — for the whole layer and for a range that
// starts past row 0, as a shard's does. The reference is serial insertion.
func TestTableSetRebuildIndependentOfWorkers(t *testing.T) {
	const n = 4396
	rows := fixtureRows(n)
	for name, h := range rebuildHashers(t) {
		ts, row := rebuildFixture(t, h, n)
		for _, r := range [][2]int{{0, n}, {1000, 3100}} {
			lo, hi := r[0], r[1]
			want := refSetBytes(t, refRebuild(ts, lo, hi, func(i int) []float32 { return rows[i] }))
			for _, workers := range []int{1, 2, 3, 4, 7, 33, 0} {
				ts.RebuildRange(100, 200, rebuildDim, row, workers) // dirty the scratch
				ts.RebuildRange(lo, hi, rebuildDim, row, workers)
				if !bytes.Equal(serializeSet(t, ts), want) {
					t.Errorf("%s: rebuild of [%d,%d) with %d workers differs from serial insertion", name, lo, hi, workers)
				}
			}
		}
	}
}

// TestTableSetRebuildSteadyStateAllocs: the fingerprint matrix, the
// per-worker row and hash buffers and the tables' arrays are sized by the
// first rebuild; a repeat allocates only the two task closures, at a fixed
// worker count and at GOMAXPROCS.
func TestTableSetRebuildSteadyStateAllocs(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops the hashers' scratch at random")
	}
	const n = 4396
	for name, h := range rebuildHashers(t) {
		for _, workers := range []int{2, 0} {
			ts, row := rebuildFixture(t, h, n)
			ts.RebuildDense(n, rebuildDim, row, workers)
			if a := testing.AllocsPerRun(5, func() { ts.RebuildDense(n, rebuildDim, row, workers) }); a > 2 {
				t.Errorf("%s: repeat rebuild with %d workers (GOMAXPROCS %d) allocates %.0f objects, want at most 2",
					name, workers, runtime.GOMAXPROCS(0), a)
			}
		}
	}
}

func TestTableSetRebuildClearsOldEntries(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 4, Dim: 8, Seed: 1})
	ts := NewTableSet(d, 16, FIFO, 2)
	row := func(i int, _ []float32) []float32 {
		return []float32{float32(i), 1, 2, 3, 4, 5, 6, 7}
	}
	ts.RebuildRange(990, 1000, 8, row, 1)
	ts.RebuildDense(3, 8, row, 1)
	st := ts.Stats()
	if st.Stored != 3*4 { // 3 neurons x 4 tables
		t.Errorf("stored %d ids after rebuild, want 12 (stale id leaked?)", st.Stored)
	}
	for _, tbl := range ts.tables {
		if slices.Max(tbl.ids) > 2 {
			t.Errorf("table still holds an id of the earlier rebuild: %v", tbl.ids)
		}
	}
}

// TestTableSetConcurrentQueryRebuild races probes against rebuilds that
// alternate between two row sets. A probe holds the read lock across all L
// tables and a rebuild swaps all L in under the write lock, so every probe
// must return, in full, what one of the two generations returns — never a
// table of each, never a partly built one. Run under -race in CI.
func TestTableSetConcurrentQueryRebuild(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 8, Dim: 24, Seed: 3})
	ts := NewTableSet(d, 8, FIFO, 4)
	n := 50
	gens := [2][][]float32{gaussRows(n, 24, 8, 9), gaussRows(n, 24, 10, 11)}
	const readers = 4
	var hs [readers][]uint32
	var want [readers][2][]int32
	for g, rows := range gens {
		ts.RebuildDense(n, 24, direct(rows), 2)
		for w := range hs {
			hs[w] = make([]uint32, ts.Tables())
			ts.HashDense(gens[0][w], hs[w])
			ts.QueryHashes(hs[w], func(id int32) { want[w][g] = append(want[w][g], id) })
		}
	}
	if slices.Equal(want[0][0], want[0][1]) {
		t.Fatal("the two generations answer reader 0 identically; the test cannot tell them apart")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				got = got[:0]
				ts.QueryHashes(hs[w], func(id int32) { got = append(got, id) })
				if !slices.Equal(got, want[w][0]) && !slices.Equal(got, want[w][1]) {
					t.Errorf("reader %d saw %v, neither generation's answer", w, got)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 40; r++ {
		ts.RebuildDense(n, 24, direct(gens[r%2]), 2)
	}
	close(stop)
	wg.Wait()
}

func TestTableSetCloneIsIndependent(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 6, Dim: 16, Seed: 7})
	ts := NewTableSet(d, 32, FIFO, 3)
	n := 30
	weights := gaussRows(n, 16, 5, 6)
	ts.RebuildDense(n, 16, direct(weights), 2)

	dedup := NewDedup(n)
	clone := ts.Clone()
	if !bytes.Equal(serializeSet(t, clone), serializeSet(t, ts)) {
		t.Fatal("clone serializes differently from the original")
	}
	for i := range weights {
		if a, b := collectDense(ts, weights[i], dedup), collectDense(clone, weights[i], dedup); !slices.Equal(a, b) {
			t.Fatalf("query %d: clone returned %v, original %v", i, b, a)
		}
	}

	// Rebuild the original over half the neurons: the clone must keep
	// serving the old contents.
	ts.RebuildDense(n/2, 16, direct(weights), 2)
	last := int32(n - 1)
	if !slices.Contains(collectDense(clone, weights[last], dedup), last) {
		t.Error("clone lost an id after the original was rebuilt")
	}
	if slices.Contains(collectDense(ts, weights[last], dedup), last) {
		t.Error("original still serves an id dropped by its rebuild")
	}

	// Rebuilding the clone must not leak into the original.
	before := serializeSet(t, ts)
	clone.RebuildRange(n-5, n, 16, direct(weights), 2)
	if !bytes.Equal(serializeSet(t, ts), before) {
		t.Error("rebuild of the clone reached the original")
	}
}

// TestCollectMatchesQueryHashes: Collect returns exactly the ids, in exactly
// the order, that visiting every bucket through QueryHashes and keeping what
// Dedup.Seen has not seen yields — unlimited and under a limit, with labels
// stamped before the probe, and on a set over a row range that starts past
// zero with the dedup array indexed from the range's start.
func TestCollectMatchesQueryHashes(t *testing.T) {
	const n, dim = 3000, 24
	h := mustSimHash(t, SimHashConfig{K: 5, L: 8, Dim: dim, Seed: 21})
	rows := gaussRows(n, dim, 41, 9)
	for _, base := range []int32{0, 1000} {
		ts := NewTableSet(h, 64, FIFO, 3)
		ts.RebuildRange(int(base), n, dim, direct(rows), 2)
		width := n - int(base)
		viaVisit, viaCollect := NewDedup(width), NewDedup(width)
		hs := make([]uint32, ts.Tables())
		for q := 0; q < 200; q++ {
			ts.HashDense(rows[q], hs)
			labels := []int32{base + int32(q), base + int32(7*q%width), base + int32(q)} // one repeated
			for _, limit := range []int{0, -1, 1, 2, 3, 40, 1 << 20} {
				var want []int32
				viaVisit.Begin()
				for _, y := range labels {
					if !viaVisit.Seen(y - base) {
						want = append(want, y)
					}
				}
				ts.QueryHashes(hs, func(id int32) {
					if limit > 0 && len(want) >= limit {
						return
					}
					if !viaVisit.Seen(id - base) {
						want = append(want, id)
					}
				})

				var got []int32
				viaCollect.Begin()
				for _, y := range labels {
					if !viaCollect.Seen(y - base) {
						got = append(got, y)
					}
				}
				got = ts.Collect(hs, viaCollect, base, got, limit)
				if !slices.Equal(got, want) {
					t.Fatalf("base %d query %d limit %d: Collect %v, closure form %v", base, q, limit, got, want)
				}
				// What each form stamped must agree too: the random top-up
				// that follows reads the stamps.
				if !slices.Equal(viaCollect.stamp, viaVisit.stamp) || viaCollect.cur != viaVisit.cur {
					t.Fatalf("base %d query %d limit %d: dedup state differs after the probe", base, q, limit)
				}
			}
		}
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
