package quant

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
)

// refLogit is the definition every walk of a RowQ is checked against:
// neuron id's dequantized pre-activation for the quantized activation qa
// (In elements), one row at a time. The explicit float32 conversions pin
// every intermediate to a single rounding, as the walks' dequant does.
func refLogit(ks *simd.Kernels, q *RowQ, id int32, qa []uint8, sa float32, zp int32) float32 {
	row := q.rows8[id]
	if len(qa) != len(row) {
		panic("refLogit: activation length mismatch")
	}
	d := float32(q.scales[id] * sa)
	v := float32(ks.DotU8S8(qa, row) - zp*q.rowSums[id])
	return float32(d*v) + q.bias[id]
}

// testRowWeights builds an f32 RowWeights view via the layer constructor +
// snapshot path (the quantizer consumes real views exactly as Snapshot
// produces them): Gaussian weights from the seed, nonzero biases.
func testRowWeights(t testing.TB, in, out int, seed uint64) *layer.RowWeights {
	t.Helper()
	l := layer.NewRowLayer(in, out, layer.Options{Seed: seed})
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < out; i++ {
		l.PoisonBias(i, float32(rng.NormFloat64()))
	}
	return l.SnapshotWeights()
}

// poisonRow overwrites one element of a snapshot row in place — FP32 views
// hand back live storage from RowF32, which is exactly what fault injection
// needs here.
func poisonRow(w *layer.RowWeights, row, el int, v float32) {
	w.RowF32(row, nil)[el] = v
}

func TestQuantizeRoundTripAccuracy(t *testing.T) {
	// Quantize, then verify every element dequantizes back within half a
	// quantization step — the defining bound of round-to-nearest.
	for _, in := range []int{1, 7, 16, 64, 65, 128} {
		src := testRowWeights(t, in, 32, uint64(in))
		q, err := QuantizeRowWeights(src, 8)
		if err != nil {
			t.Fatalf("in=%d: QuantizeRowWeights: %v", in, err)
		}
		buf := make([]float32, in)
		for i := 0; i < 32; i++ {
			row := src.RowF32(i, buf)
			sc := q.scales[i]
			for j, v := range row {
				got := float32(q.Row8(int32(i))[j]) * sc
				if diff := math.Abs(float64(got - v)); diff > float64(sc)/2+1e-6 {
					t.Fatalf("in=%d row %d[%d]: dequant %v vs %v (scale %v, diff %v)",
						in, i, j, got, v, sc, diff)
				}
			}
		}
	}
}

func TestQuantizeRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name    string
		row, el int
		v       float32
	}{
		{"nan", 3, 2, float32(math.NaN())},
		{"+inf", 0, 0, float32(math.Inf(1))},
		{"-inf", 7, 5, float32(math.Inf(-1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := testRowWeights(t, 16, 8, 1)
			poisonRow(src, tc.row, tc.el, tc.v)
			if _, err := QuantizeRowWeights(src, 8); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("QuantizeRowWeights on %s row: err = %v, want ErrNonFinite", tc.name, err)
			}
			var buf bytes.Buffer
			err := WriteRowsDelta(&buf, src, []int32{0, 3, 7}, 8)
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("WriteRowsDelta over %s row: err = %v, want ErrNonFinite", tc.name, err)
			}
		})
	}
}

func TestQuantizeDeterministic(t *testing.T) {
	// Same source view → bit-identical packed bytes, scales, and sums. Row
	// quantization must be a pure function of the row's f32 bytes.
	src := testRowWeights(t, 64, 50, 9)
	a, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.SerializeView(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.SerializeView(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("two quantizations of the same view serialized differently")
	}
}

func TestSerializeViewRoundTrip(t *testing.T) {
	for _, in := range []int{1, 15, 16, 33} {
		src := testRowWeights(t, in, 20, uint64(800+in))
		q, err := QuantizeRowWeights(src, 8)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := q.SerializeView(&buf); err != nil {
			t.Fatal(err)
		}
		if got := int64(buf.Len()); got != q.PackedBytes() {
			t.Errorf("in=%d: serialized %d bytes, PackedBytes says %d", in, got, q.PackedBytes())
		}
		r, err := ReadRowQ(bytes.NewReader(buf.Bytes()), in, 20, 8)
		if err != nil {
			t.Fatalf("in=%d: ReadRowQ: %v", in, err)
		}
		assertRowQEqual(t, q, r)
	}
}

func assertRowQEqual(t *testing.T, a, b *RowQ) {
	t.Helper()
	if a.In != b.In || a.Out != b.Out || a.Bits != b.Bits {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d", a.In, a.Out, a.Bits, b.In, b.Out, b.Bits)
	}
	for i := 0; i < a.Out; i++ {
		if a.scales[i] != b.scales[i] {
			t.Fatalf("row %d scale %v vs %v", i, a.scales[i], b.scales[i])
		}
		if a.rowSums[i] != b.rowSums[i] {
			t.Fatalf("row %d sum %d vs %d (recompute drifted)", i, a.rowSums[i], b.rowSums[i])
		}
		if a.bias[i] != b.bias[i] {
			t.Fatalf("row %d bias %v vs %v", i, a.bias[i], b.bias[i])
		}
		for j := range a.rows8[i] {
			if a.rows8[i][j] != b.rows8[i][j] {
				t.Fatalf("row %d[%d]: %d vs %d", i, j, a.rows8[i][j], b.rows8[i][j])
			}
		}
	}
}

func TestPatchRowsCOW(t *testing.T) {
	srcA := testRowWeights(t, 32, 24, 11)
	srcB := testRowWeights(t, 32, 24, 12)
	qa, err := QuantizeRowWeights(srcA, 8)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := QuantizeRowWeights(srcB, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{2, 7, 23}
	var delta bytes.Buffer
	if err := qb.SerializeRowsDelta(&delta, ids); err != nil {
		t.Fatal(err)
	}
	patched, gotIDs, err := qa.PatchRows(bytes.NewReader(delta.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != len(ids) {
		t.Fatalf("PatchRows returned ids %v, want %v", gotIDs, ids)
	}
	touched := map[int32]bool{2: true, 7: true, 23: true}
	for i := 0; i < 24; i++ {
		id := int32(i)
		if touched[id] {
			// Patched rows carry B's bytes in fresh storage.
			if &patched.rows8[i][0] == &qa.rows8[i][0] {
				t.Fatalf("row %d: patched row aliases the source view", i)
			}
			for j := range patched.rows8[i] {
				if patched.rows8[i][j] != qb.rows8[i][j] {
					t.Fatalf("row %d[%d]: patched %d, want %d", i, j, patched.rows8[i][j], qb.rows8[i][j])
				}
			}
			if patched.scales[i] != qb.scales[i] || patched.rowSums[i] != qb.rowSums[i] {
				t.Fatalf("row %d: scale/sum not patched", i)
			}
		} else if &patched.rows8[i][0] != &qa.rows8[i][0] {
			t.Fatalf("row %d: untouched row was copied (COW broken)", i)
		}
	}
}

// TestPatchRowsOneAllocPerRow: each patched row costs exactly one
// allocation, its own storage; the bytes are read into it, never staged.
func TestPatchRowsOneAllocPerRow(t *testing.T) {
	src := testRowWeights(t, 32, 40, 13)
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		ids := make([]int32, rows)
		for i := range ids {
			ids[i] = int32(2 * i)
		}
		var b bytes.Buffer
		if err := q.SerializeRowsDelta(&b, ids); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(b.Bytes())
		return testing.AllocsPerRun(20, func() {
			r.Reset(b.Bytes())
			if _, _, err := q.PatchRows(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(12); many-few != 8 {
		t.Fatalf("PatchRows: %v allocations for 4 rows, %v for 12; want one more per row", few, many)
	}
}

func TestWriteRowsDeltaMatchesFullQuantize(t *testing.T) {
	// The trainer-side on-the-fly delta encoder and a receiver-side full
	// quantize must agree byte for byte on the touched rows — the delta
	// bit-identity contract.
	src := testRowWeights(t, 33, 40, 28)
	full, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{0, 5, 17, 39}
	var fromLayer, fromView bytes.Buffer
	if err := WriteRowsDelta(&fromLayer, src, ids, 8); err != nil {
		t.Fatal(err)
	}
	if err := full.SerializeRowsDelta(&fromView, ids); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromLayer.Bytes(), fromView.Bytes()) {
		t.Fatal("WriteRowsDelta and SerializeRowsDelta disagree")
	}
}

func TestPatchRowsRejectsBadPayloads(t *testing.T) {
	src := testRowWeights(t, 16, 10, 31)
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := func() []byte {
		var b bytes.Buffer
		if err := q.SerializeRowsDelta(&b, []int32{1, 4}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := q.PatchRows(bytes.NewReader(good[:len(good)-3])); err == nil {
			t.Fatal("truncated delta accepted")
		}
	})
	t.Run("bits-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 4 // header word 2 is the bit width
		if _, _, err := q.PatchRows(bytes.NewReader(bad)); err == nil {
			t.Fatal("delta declaring 4-bit rows applied to an int8 view")
		}
	})
	t.Run("descending-ids", func(t *testing.T) {
		var b bytes.Buffer
		// Hand-build a header naming 2 rows, then write them out of order.
		for _, v := range []uint32{16, 10, 8, 2} {
			if err := writeU32(&b, v); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int32{4, 1} {
			writeU32(&b, uint32(id))
			writeF32s(&b, q.scales[id:id+1])
			q.writeRow(&b, id)
			writeF32s(&b, q.bias[id:id+1])
		}
		if _, _, err := q.PatchRows(bytes.NewReader(b.Bytes())); err == nil {
			t.Fatal("out-of-order delta accepted")
		}
	})
}

func TestQuantizeActsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h := make([]float32, n)
		for i := range h {
			h[i] = float32(rng.NormFloat64() * 3)
		}
		if trial%5 == 0 { // ReLU-like: non-negative activations
			for i := range h {
				if h[i] < 0 {
					h[i] = 0
				}
			}
		}
		qa := make([]uint8, n)
		sa, zp := QuantizeActs(h, qa)
		if zp < 0 || zp > 127 {
			t.Fatalf("trial %d: zero point %d outside [0,127]", trial, zp)
		}
		for i, v := range h {
			if qa[i] > 127 {
				t.Fatalf("trial %d: qa[%d] = %d exceeds u7", trial, i, qa[i])
			}
			if sa == 0 {
				continue
			}
			got := float32(int32(qa[i])-zp) * sa
			if diff := math.Abs(float64(got - v)); diff > float64(sa)/2+1e-6 {
				t.Fatalf("trial %d: act[%d] dequant %v vs %v (scale %v)", trial, i, got, v, sa)
			}
		}
	}
	// All-zero input: scale 0, all-zero codes.
	qa := make([]uint8, 8)
	qa[3] = 99 // stale garbage must be cleared
	sa, zp := QuantizeActs(make([]float32, 8), qa)
	if sa != 0 || zp != 0 {
		t.Fatalf("zero input: scale %v zp %d, want 0, 0", sa, zp)
	}
	for i, v := range qa {
		if v != 0 {
			t.Fatalf("zero input: qa[%d] = %d", i, v)
		}
	}
}

func TestLogitMatchesF32(t *testing.T) {
	// The dequantized logit must track the exact f32 logit within the
	// combined quantization error budget. Not a bit-equality test — an
	// error-bound test, with the bound derived from the two step sizes.
	src := testRowWeights(t, 64, 30, 55)
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	ks := simd.Active()
	rng := rand.New(rand.NewSource(56))
	h := make([]float32, 64)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
		if h[i] < 0 {
			h[i] = 0 // ReLU activations, the serving regime
		}
	}
	qa := make([]uint8, 64)
	sa, zp := QuantizeActs(h, qa)
	buf := make([]float32, 64)
	for i := int32(0); i < 30; i++ {
		exact := simd.Active().Dot(src.RowF32(int(i), buf), h) + src.Bias()[i]
		got := refLogit(ks, q, i, qa, sa, zp)
		// Error budget: each product w*h gains at most |w|*sa/2 + |h|*sw/2
		// + sw*sa/4; summed over 64 terms with |w|,|h| ~ N(0,1) this stays
		// well under the loose bound below.
		bound := float64(64) * (float64(sa)/2*3 + float64(q.scales[i])/2*3)
		if diff := math.Abs(float64(got - exact)); diff > bound {
			t.Fatalf("row %d: quantized logit %v vs exact %v (diff %v > bound %v)",
				i, got, exact, diff, bound)
		}
	}
}

// TestForwardAllMatchesLogit pins the exact walk to the per-row definition:
// every score ForwardAllBatchRange, ForwardAllBatch, ForwardAll and
// ForwardActive produce is Logit of that row and sample, bit for bit — on
// every kernel tier, for chunks of 1 to 64 samples (every remainder of the
// sample tile), for views that end just before, on and after a block
// boundary, and for row ranges that start and end inside a block, with one
// WalkScratch reused across all of them.
func TestForwardAllMatchesLogit(t *testing.T) {
	const in = 200
	block := blockRows(in)
	rng := rand.New(rand.NewSource(67))
	qas := make([][]uint8, 64)
	sas := make([]float32, len(qas))
	zps := make([]int32, len(qas))
	for s := range qas {
		h := make([]float32, in)
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		qas[s] = make([]uint8, in)
		sas[s], zps[s] = QuantizeActs(h, qas[s])
	}
	for _, out := range []int{1, block - 1, block, block + 1, 3*block + 7} {
		q, err := QuantizeRowWeights(testRowWeights(t, in, out, 66), 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range simd.AvailableModes() {
			ks := simd.ForMode(m)
			want := make([][]float32, len(qas))
			got := make([][]float32, len(qas))
			for s := range qas {
				want[s], got[s] = make([]float32, out), make([]float32, out)
				for i := range want[s] {
					want[s][i] = refLogit(ks, q, int32(i), qas[s], sas[s], zps[s])
				}
			}
			clear := func() {
				for s := range got {
					for i := range got[s] {
						got[s][i] = float32(math.NaN())
					}
				}
			}
			check := func(name string, s int) {
				t.Helper()
				for i := range want[s] {
					if math.Float32bits(got[s][i]) != math.Float32bits(want[s][i]) {
						t.Fatalf("%v out=%d %s sample %d row %d = %v, want %v", m, out, name, s, i, got[s][i], want[s][i])
					}
				}
			}
			ws := new(WalkScratch)
			for _, n := range []int{1, 2, 3, 4, 5, 33, 45, 64} {
				clear()
				q.ForwardAllBatch(ks, qas[:n], sas[:n], zps[:n], got[:n])
				for s := 0; s < n; s++ {
					check(fmt.Sprintf("ForwardAllBatch chunk=%d", n), s)
				}
			}
			// Three ranges cut inside blocks assemble the same scores; rows
			// outside a range are not written.
			cutA, cutB := out/3, out-out/4
			clear()
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], nil, cutA, cutB, ws)
			for i := 0; i < out; i++ {
				if inside := i >= cutA && i < cutB; inside == math.IsNaN(float64(got[1][i])) {
					t.Fatalf("%v out=%d: range [%d,%d) row %d written=%v", m, out, cutA, cutB, i, !inside)
				}
			}
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], nil, 0, cutA, ws)
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], nil, cutB, out, ws)
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], nil, cutB, cutB, ws) // empty: a no-op
			check("ForwardAllBatchRange", 0)
			check("ForwardAllBatchRange", 1)
			// With maxima, ranges split on a group boundary: each sample's
			// maxima are those of its scores' groups.
			clear()
			g := simd.MaxGroup
			maxes := [][]float32{make([]float32, (out+g-1)/g), make([]float32, (out+g-1)/g)}
			cut := min(out, (out/2+g-1)&^(g-1))
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], maxes, 0, cut, ws)
			q.ForwardAllBatchRange(ks, qas[:2], sas[:2], zps[:2], got[:2], maxes, cut, out, ws)
			for s := range 2 {
				check("ForwardAllBatchRange with maxima", s)
				for j, mx := range maxes[s] {
					if w := slices.Max(want[s][j*g : min(j*g+g, out)]); mx != w {
						t.Fatalf("%v out=%d sample %d: maxes[%d] = %v, the group's max %v", m, out, s, j, mx, w)
					}
				}
			}
			clear()
			q.ForwardAll(ks, qas[5], sas[5], zps[5], got[5], 4)
			check("ForwardAll", 5)

			active := []int32{0, int32(out / 2), int32(out - 1)}
			logits := make([]float32, len(active))
			q.ForwardActive(ks, active, qas[0], sas[0], zps[0], logits, ws)
			for k, id := range active {
				if logits[k] != want[0][id] {
					t.Fatalf("%v out=%d ForwardActive[%d] = %v, want %v", m, out, id, logits[k], want[0][id])
				}
			}
		}
	}
	// The walk still refuses a batch whose outputs do not match its inputs,
	// a short output vector and a row range outside the view.
	q, err := QuantizeRowWeights(testRowWeights(t, in, 6, 68), 8)
	if err != nil {
		t.Fatal(err)
	}
	ks, outs := simd.Active(), [][]float32{make([]float32, 6)}
	wide, err := QuantizeRowWeights(testRowWeights(t, in, 200, 68), 8)
	if err != nil {
		t.Fatal(err)
	}
	wideOut, wideMaxes := [][]float32{make([]float32, 200)}, [][]float32{make([]float32, 4)}
	for name, call := range map[string]func(){
		"batch mismatch": func() { q.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], nil, nil, 0, 6, nil) },
		"short out":      func() { q.ForwardAllBatch(ks, qas[:1], sas[:1], zps[:1], [][]float32{make([]float32, 5)}) },
		"short single":   func() { q.ForwardAll(ks, qas[0], sas[0], zps[0], make([]float32, 5), 1) },
		"range past end": func() { q.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], outs, nil, 2, 7, nil) },
		"range reversed": func() { q.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], outs, nil, 3, 2, nil) },
		"maxima off a group start": func() {
			wide.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], wideOut, wideMaxes, 1, 200, nil)
		},
		"maxima off a group end": func() {
			wide.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], wideOut, wideMaxes, 0, 100, nil)
		},
		"maxes mismatch": func() { q.ForwardAllBatchRange(ks, qas[:1], sas[:1], zps[:1], outs, [][]float32{}, 0, 6, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestRowQForwardActiveRejectsShortActs: an activation that does not have In
// elements is refused on every tier — by the walk at the first listed row,
// with DotU8S8's panic, and by Logit — instead of scoring a truncated dot as
// the per-row loop over the unchecked table entries used to.
func TestRowQForwardActiveRejectsShortActs(t *testing.T) {
	const in = 128
	q, err := QuantizeRowWeights(testRowWeights(t, in, 8, 69), 8)
	if err != nil {
		t.Fatal(err)
	}
	panics := func(call func()) (msg any) {
		defer func() { msg = recover() }()
		call()
		return nil
	}
	for _, m := range simd.AvailableModes() {
		ks := simd.ForMode(m)
		for _, n := range []int{in / 2, in - 1, in + 1, 2 * in} {
			qa, logits := make([]uint8, n), make([]float32, 3)
			if msg := panics(func() { q.ForwardActive(ks, []int32{1, 0, 7}, qa, 0.5, 3, logits, nil) }); msg != "simd: DotU8S8 length mismatch" {
				t.Errorf("%v: ForwardActive with %d of %d activations: panic %v", m, n, in, msg)
			}
			if msg := panics(func() { refLogit(ks, q, 1, qa, 0.5, 3) }); msg == nil {
				t.Errorf("%v: Logit with %d of %d activations did not panic", m, n, in)
			}
			if msg := panics(func() { q.ForwardAll(ks, qa, 0.5, 3, make([]float32, 8), 1) }); msg != "simd: DotU8S8 length mismatch" {
				t.Errorf("%v: ForwardAll with %d of %d activations: panic %v", m, n, in, msg)
			}
		}
	}
}

func TestCheckFinite(t *testing.T) {
	src := testRowWeights(t, 16, 10, 88)
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckFinite(16); err != nil {
		t.Fatalf("healthy view: %v", err)
	}
	if err := q.CheckFiniteRows([]int32{0, 9}); err != nil {
		t.Fatalf("healthy rows: %v", err)
	}
	q.scales[4] = float32(math.NaN())
	if err := q.CheckFinite(16); !errors.Is(err, layer.ErrNonFinite) {
		t.Fatalf("NaN scale: CheckFinite = %v, want ErrNonFinite", err)
	}
	if err := q.CheckFiniteRows([]int32{4}); !errors.Is(err, layer.ErrNonFinite) {
		t.Fatalf("NaN scale: CheckFiniteRows = %v, want ErrNonFinite", err)
	}
	q.scales[4] = 1
	q.bias[7] = float32(math.Inf(1))
	if err := q.CheckFinite(16); !errors.Is(err, layer.ErrNonFinite) {
		t.Fatalf("Inf bias: CheckFinite = %v, want ErrNonFinite", err)
	}
}

func TestQuantizeRejectsBadBits(t *testing.T) {
	src := testRowWeights(t, 8, 4, 99)
	// 8 is the only width: 4 was deleted by measurement (see the package
	// comment) and must not come back through any entry point, the wire's
	// included.
	for _, bits := range []int{0, 4, 16} {
		if _, err := QuantizeRowWeights(src, bits); err == nil {
			t.Errorf("QuantizeRowWeights accepted bits=%d", bits)
		}
		if err := WriteRowsDelta(io.Discard, src, []int32{1}, bits); err == nil {
			t.Errorf("WriteRowsDelta accepted bits=%d", bits)
		}
	}
	q, err := QuantizeRowWeights(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	var view bytes.Buffer
	if err := q.SerializeView(&view); err != nil {
		t.Fatal(err)
	}
	view.Bytes()[8] = 4 // header word 2 is the bit width
	if _, err := ReadRowQ(bytes.NewReader(view.Bytes()), q.In, q.Out, 8); !errors.Is(err, errShape) {
		t.Errorf("ReadRowQ of a view declaring 4-bit rows: %v, want errShape", err)
	}
	if _, err := ReadRowQ(bytes.NewReader(view.Bytes()), q.In, q.Out, 4); err == nil {
		t.Error("ReadRowQ accepted a request for 4-bit rows")
	}
}
