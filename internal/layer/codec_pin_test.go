package layer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"github.com/slide-cpu/slide/internal/bf16"
	"github.com/slide-cpu/slide/internal/simd"
)

// Shapes of the pinned layers: 37 columns and 70 rows leave a partial last
// word in the touched bitsets, and the row layer spans three of them.
const (
	pinColIn, pinColOut = 37, 12
	pinRowIn, pinRowOut = 12, 70
)

// pinKS is the kernel table every pinned byte was produced with: the scalar
// tier is plain Go on every host, so the literals do not depend on CPUID or
// on SLIDE_KERNEL_MODE.
func pinKS() *simd.Kernels { return simd.ForMode(simd.Scalar) }

func pinAdam(step int) simd.AdamParams {
	return simd.NewAdamParams(0.01, 0.9, 0.999, 1e-8, int64(step))
}

// pinTrainCol accumulates one sparse sample and, when apply is set, steps it.
func pinTrainCol(l *ColLayer, rng *rand.Rand, step int, apply bool) {
	h, dh := make([]float32, l.Out), make([]float32, l.Out)
	x := sampleVec(rng, l.In, 5)
	l.Forward(pinKS(), x, h)
	for i := range dh {
		dh[i] = float32(rng.NormFloat64())
	}
	l.Backward(pinKS(), x, h, dh)
	if apply {
		l.ApplyAdam(pinKS(), pinAdam(step), 1)
	}
}

// pinTrainRow accumulates nActive rows against one dense input.
func pinTrainRow(l *RowLayer, rng *rand.Rand, step, nActive int, apply bool) {
	h := make([]float32, l.In)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
	}
	hBF := bf16.FromSlice(h)
	for k := 0; k < nActive; k++ {
		id := int32(rng.IntN(l.Out))
		if nActive >= l.Out {
			id = int32(k)
		}
		l.Accumulate(pinKS(), id, float32(rng.NormFloat64()), h, hBF, nil)
	}
	if apply {
		l.ApplyAdam(pinKS(), pinAdam(step), 1)
	}
}

func pinnedCol(o Options) *ColLayer {
	o.Seed = 5
	l := NewColLayer(pinColIn, pinColOut, ReLU, o)
	rng := rand.New(rand.NewPCG(71, 1))
	for step := 1; step <= 4; step++ {
		pinTrainCol(l, rng, step, true)
	}
	return l
}

func pinnedRow(o Options) *RowLayer {
	o.Seed = 6
	l := NewRowLayer(pinRowIn, pinRowOut, o)
	rng := rand.New(rand.NewPCG(72, 2))
	for step := 1; step <= 4; step++ {
		pinTrainRow(l, rng, step, 9, true)
	}
	return l
}

func mustBytes(t *testing.T, what string, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return b.Bytes()
}

func shaHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// pinDeltaIDs are the id lists every delta codec is pinned over: empty, one
// id, a run, and the last id of an n-vector layer.
func pinDeltaIDs(n int) [][]int32 {
	return [][]int32{{}, {3}, {4, 5, 6, 7}, {int32(n - 1)}}
}

// TestLayerCodecBytesPinned pins the three byte formats internal/layer
// writes — the checkpoint section (Serialize), the replication base view
// (SerializeView) and the replication delta (Serialize{Rows,Cols}Delta) —
// for both layer kinds, all three precisions and both placements, to SHA-256
// literals recorded on the commit before the Row/Col × f32/BF16 copies of
// these codecs became one store. It then feeds those very bytes back through
// Deserialize, Read{Row,Col}Weights and Patch{Rows,Cols} and requires the
// decoded state to re-encode to them: a stream written before the change
// loads after it and leaves byte-identical.
func TestLayerCodecBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the scalar tier)")
	}
	want := map[string]string{
		"fp32/col/serialize":      "6ca5da5ae32a98900691c3a8e0c1d08031592758b4da0a0803081ab1bef5b236",
		"fp32/row/serialize":      "83adf5f6c8bada45ff08f5282f2d1e1de3b463f6fd4ac240e29127667359a466",
		"fp32/col/view":           "018ad731210a7f24f587af999ad20e1f015c0c9297eda64deb29e438daf341ce",
		"fp32/row/view":           "448a97603bb665ebe3c5c805607ec4c1796ab0ae5a669bd2a12e84416dbd70bb",
		"fp32/col/delta0":         "dcf4b391cc3e889969365c34bc25041e0b5ae3a779368711dd76972941ba6d51",
		"fp32/col/delta1":         "147827783310a10e87dbe54a96323907699c11c9eb064e24b01766843bb5866f",
		"fp32/col/delta2":         "fa8a42baf2a7ef46c22552f3ef2f487e1517bc1aa0b55719cc995f8cebace179",
		"fp32/col/delta3":         "bafc10f9a95104649b6e7a797d06fb6e9781666a8d7973fcefaf9df17f03416c",
		"fp32/row/delta0":         "fb7b2eaa37f2d8e3bd51d7213152fccb6ef3a493ff2b1280d2c263cfded65cf0",
		"fp32/row/delta1":         "377fcc77262d62de3c93717159f005fb16364f0eaec2b4068292fdaef71bc1db",
		"fp32/row/delta2":         "4fa083e1fd488bf63c4a0a56f2e92c8e856f9584ade4af816474dab640e70dee",
		"fp32/row/delta3":         "28e81571ccef4039189128f2fa9dd8de78a61c1d6c25fb1ff12e72420ec1c564",
		"bf16-act/col/serialize":  "3fc419d8965a3482e09c7d9b3989c0be78879635ba1325c984649bb96064b51b",
		"bf16-act/row/serialize":  "0447dd03f2039e8f744acaf7d0d7e94bd96f0e62edc340c62073d4b4478b8bb0",
		"bf16-act/col/view":       "3e42f26cacc9b9589df18f1d7f729390b520430a78fdc82f70a71e6d658b8fc8",
		"bf16-act/row/view":       "5d9675cd17be5c4bf05ea1d540a6bf8d25c5a06d697b8833c5cac366ebe48d33",
		"bf16-act/col/delta0":     "805936cae60f2fa8a716642c22d7d3ed5430d854baf99ce741843dd07bee564a",
		"bf16-act/col/delta1":     "2da07fb8d6e2a4b6572ac4cfaa3e1ecf69b46bdaf0354dedabf5f5f70ee12609",
		"bf16-act/col/delta2":     "aaedd35ca6f6fb896d6b888189d54f707e03c064cc1b78548896c1d1f3cc2c04",
		"bf16-act/col/delta3":     "2cfa3a29a9dd7d58623bbf09c436eec66c6025a4734f4e8376855ca7e8fc8f42",
		"bf16-act/row/delta0":     "9b0e0c60ad7180114909b514d436e710f5ab8a82abb2477b093250678e8397e1",
		"bf16-act/row/delta1":     "d6f28362aceb23a2c48b5bf101989085b18e6f1ef9b8de829dde5f782a69ff33",
		"bf16-act/row/delta2":     "17ea8a840d83aa551ca356567ff917aadfc289c37b0a8e447dc6a38379f0fb96",
		"bf16-act/row/delta3":     "59c37bda5076bc6a925461238dc9f03eb290159bb84cd4bd6b09660e28e175c9",
		"bf16-both/col/serialize": "7aad2dc40e7ac817736fb30ab434fc28a2f9082da4ad4039d2e28b07f3e3268e",
		"bf16-both/row/serialize": "5056b32f969b1d7ca34419676cc60c4377d1da2962dcfb041c4fc1c6f141191c",
		"bf16-both/col/view":      "5efc455bdfda404439253eb2baba2677b03d7707e762c292364ddee4993d7f36",
		"bf16-both/row/view":      "62b16501f1dfb122ec99871394ead33af7207a7dde6ccdf19f09bdf852655ef8",
		"bf16-both/col/delta0":    "9d6a538d8ecc42a4c72d06142bcea53647849b85e52a3d87dc3f43d676829c48",
		"bf16-both/col/delta1":    "43f9c1140b28d483e3462cfeb7007db672bed2006b03303501da06e93fc57c3d",
		"bf16-both/col/delta2":    "79073a5a4a3736fbe7e05e762c3a78035b5aa9279fb1e12ede209527b608c420",
		"bf16-both/col/delta3":    "5e84cabde69fac51f312c6de8b605ae64cb29dc2688f66aa05dd2d430898dfb7",
		"bf16-both/row/delta0":    "6e779f662455808d58080e240e9b6bca7bc5723b8c3256b465efe225f5bb48a7",
		"bf16-both/row/delta1":    "d92da7c6b3ec4600b3508e9478e02c2928af9a41d8606892c8e443dd5df0ec62",
		"bf16-both/row/delta2":    "e7ea7a72fb1bb7c3a4282c1d5d17dbafd265d85eb05e641656e2204bbce44d99",
		"bf16-both/row/delta3":    "7074648c218c0873bca4d894a171b3a5e19925a34370318ff76e15a179399076",
	}
	for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
		for _, place := range []Placement{Contiguous, Scattered} {
			o := Options{Precision: prec, Placement: place}
			col, row := pinnedCol(o), pinnedRow(o)
			colView, rowView := col.SnapshotWeights(), row.SnapshotWeights()

			type codec struct {
				name    string
				encoded []byte
				// reencode decodes encoded with the matching reader and
				// writes what it got back out.
				reencode func(b []byte) ([]byte, error)
			}
			// back encodes what a decoder returned, unless it failed.
			back := func(err error, write func(*bytes.Buffer) error) ([]byte, error) {
				if err != nil {
					return nil, err
				}
				return mustBytes(t, "re-encoding", write), nil
			}
			fresh := o
			fresh.Seed = 99 // another initialisation than the pinned layers'
			codecs := []codec{
				{"col/serialize", mustBytes(t, "col.Serialize", func(b *bytes.Buffer) error { return col.Serialize(b) }),
					func(b []byte) ([]byte, error) {
						l := NewColLayer(pinColIn, pinColOut, ReLU, fresh)
						return back(l.Deserialize(bytes.NewReader(b)), func(out *bytes.Buffer) error { return l.Serialize(out) })
					}},
				{"row/serialize", mustBytes(t, "row.Serialize", func(b *bytes.Buffer) error { return row.Serialize(b) }),
					func(b []byte) ([]byte, error) {
						l := NewRowLayer(pinRowIn, pinRowOut, fresh)
						return back(l.Deserialize(bytes.NewReader(b)), func(out *bytes.Buffer) error { return l.Serialize(out) })
					}},
				{"col/view", mustBytes(t, "col.SerializeView", func(b *bytes.Buffer) error { return colView.SerializeView(b) }),
					func(b []byte) ([]byte, error) {
						w, err := ReadColWeights(bytes.NewReader(b), pinColIn, pinColOut, prec, ReLU)
						return back(err, func(out *bytes.Buffer) error { return w.SerializeView(out) })
					}},
				{"row/view", mustBytes(t, "row.SerializeView", func(b *bytes.Buffer) error { return rowView.SerializeView(b) }),
					func(b []byte) ([]byte, error) {
						w, err := ReadRowWeights(bytes.NewReader(b), pinRowIn, pinRowOut, prec)
						return back(err, func(out *bytes.Buffer) error { return w.SerializeView(out) })
					}},
			}
			for k, ids := range pinDeltaIDs(pinColIn) {
				codecs = append(codecs, codec{fmt.Sprintf("col/delta%d", k),
					mustBytes(t, "SerializeColsDelta", func(b *bytes.Buffer) error { return colView.SerializeColsDelta(b, ids) }),
					func(b []byte) ([]byte, error) {
						p, got, err := colView.PatchCols(bytes.NewReader(b))
						return back(err, func(out *bytes.Buffer) error { return p.SerializeColsDelta(out, got) })
					}})
			}
			for k, ids := range pinDeltaIDs(pinRowOut) {
				codecs = append(codecs, codec{fmt.Sprintf("row/delta%d", k),
					mustBytes(t, "SerializeRowsDelta", func(b *bytes.Buffer) error { return rowView.SerializeRowsDelta(b, ids) }),
					func(b []byte) ([]byte, error) {
						p, got, err := rowView.PatchRows(bytes.NewReader(b))
						return back(err, func(out *bytes.Buffer) error { return p.SerializeRowsDelta(out, got) })
					}})
			}
			for _, c := range codecs {
				// Placement is in-memory only: both placements share a literal.
				key := fmt.Sprintf("%v/%s", prec, c.name)
				name := fmt.Sprintf("%s/%v", key, place)
				if got := shaHex(c.encoded); got != want[key] {
					t.Errorf("%s: %d bytes hash to %s, want %s", name, len(c.encoded), got, want[key])
				}
				again, err := c.reencode(c.encoded)
				if err != nil {
					t.Errorf("%s: decoding the pinned bytes: %v", name, err)
				} else if !bytes.Equal(again, c.encoded) {
					t.Errorf("%s: the pinned bytes decode and re-encode to different bytes", name)
				}
			}
		}
	}
}

// TestSnapshotDeltaRoundTrip: a journaled training interval, seen three ways
// — a fresh full snapshot, a copy-on-write snapshot against the previous
// one, and the previous one patched with the interval's delta — is one set
// of bytes, and both cheap forms share every untouched vector's backing
// array with the previous view while owning every touched one.
func TestSnapshotDeltaRoundTrip(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
		for _, place := range []Placement{Contiguous, Scattered} {
			o := Options{Precision: prec, Placement: place}
			name := fmt.Sprintf("%v/%v", prec, place)

			col := pinnedCol(o)
			col.EnableJournal()
			prevC := col.SnapshotWeights()
			rng := rand.New(rand.NewPCG(73, 3))
			pinTrainCol(col, rng, 5, true)
			pinTrainCol(col, rng, 6, true)
			cols := col.DrainJournal()
			if len(cols) == 0 || len(cols) >= pinColIn {
				t.Fatalf("%s: journal named %d of %d columns; the test needs some touched and some not", name, len(cols), pinColIn)
			}
			fullC := mustBytes(t, "full col view", func(b *bytes.Buffer) error { return col.SnapshotWeights().SerializeView(b) })
			cowC := col.SnapshotWeightsCOW(prevC, cols)
			if got := mustBytes(t, "cow col view", func(b *bytes.Buffer) error { return cowC.SerializeView(b) }); !bytes.Equal(got, fullC) {
				t.Errorf("%s: COW column snapshot differs from a full one", name)
			}
			deltaC := mustBytes(t, "col delta", func(b *bytes.Buffer) error { return cowC.SerializeColsDelta(b, cols) })
			patchedC, gotCols, err := prevC.PatchCols(bytes.NewReader(deltaC))
			if err != nil {
				t.Fatalf("%s: PatchCols: %v", name, err)
			}
			if fmt.Sprint(gotCols) != fmt.Sprint(cols) {
				t.Errorf("%s: PatchCols named %v, delta carried %v", name, gotCols, cols)
			}
			if got := mustBytes(t, "patched col view", func(b *bytes.Buffer) error { return patchedC.SerializeView(b) }); !bytes.Equal(got, fullC) {
				t.Errorf("%s: patched column view differs from a full snapshot of its source", name)
			}
			if err := patchedC.CheckFiniteCols(gotCols); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			touched := map[int32]bool{}
			for _, id := range cols {
				touched[id] = true
			}
			for j := 0; j < pinColIn; j++ {
				for which, w := range map[string]*ColWeights{"COW": cowC, "patched": patchedC} {
					if shared := pinColPtr(w, j) == pinColPtr(prevC, j); shared == touched[int32(j)] {
						t.Errorf("%s: %s column %d shares the previous view's array = %v, touched = %v", name, which, j, shared, touched[int32(j)])
					}
				}
			}

			row := pinnedRow(o)
			row.EnableJournal()
			prevR := row.SnapshotWeights()
			pinTrainRow(row, rng, 5, 6, true)
			pinTrainRow(row, rng, 6, 6, true)
			rows := row.DrainJournal()
			if len(rows) == 0 || len(rows) >= pinRowOut {
				t.Fatalf("%s: journal named %d of %d rows", name, len(rows), pinRowOut)
			}
			fullR := mustBytes(t, "full row view", func(b *bytes.Buffer) error { return row.SnapshotWeights().SerializeView(b) })
			cowR := row.SnapshotWeightsCOW(prevR, rows)
			if got := mustBytes(t, "cow row view", func(b *bytes.Buffer) error { return cowR.SerializeView(b) }); !bytes.Equal(got, fullR) {
				t.Errorf("%s: COW row snapshot differs from a full one", name)
			}
			deltaR := mustBytes(t, "row delta", func(b *bytes.Buffer) error { return cowR.SerializeRowsDelta(b, rows) })
			patchedR, gotRows, err := prevR.PatchRows(bytes.NewReader(deltaR))
			if err != nil {
				t.Fatalf("%s: PatchRows: %v", name, err)
			}
			if fmt.Sprint(gotRows) != fmt.Sprint(rows) {
				t.Errorf("%s: PatchRows named %v, delta carried %v", name, gotRows, rows)
			}
			if got := mustBytes(t, "patched row view", func(b *bytes.Buffer) error { return patchedR.SerializeView(b) }); !bytes.Equal(got, fullR) {
				t.Errorf("%s: patched row view differs from a full snapshot of its source", name)
			}
			if err := patchedR.CheckFiniteRows(gotRows); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			touched = map[int32]bool{}
			for _, id := range rows {
				touched[id] = true
			}
			for i := 0; i < pinRowOut; i++ {
				for which, w := range map[string]*RowWeights{"COW": cowR, "patched": patchedR} {
					if shared := pinRowPtr(w, i) == pinRowPtr(prevR, i); shared == touched[int32(i)] {
						t.Errorf("%s: %s row %d shares the previous view's array = %v, touched = %v", name, which, i, shared, touched[int32(i)])
					}
				}
			}
		}
	}
}

// TestApplyAdamWalksAgree: however the touched set is walked — one worker or
// several, shard ranges plus FinishAdam, or the dense ApplyAdamAll over a
// layer whose every row is touched — the stepped layer serialises to the
// same bytes, and the touched set is empty afterwards.
func TestApplyAdamWalksAgree(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16Act, BF16Both} {
		o := Options{Precision: prec}
		// Columns: sparse touch, any worker count.
		var wantCol []byte
		for _, workers := range []int{1, 2, 3, 7} {
			col := pinnedCol(o)
			pinTrainCol(col, rand.New(rand.NewPCG(74, 4)), 5, false)
			col.ApplyAdam(pinKS(), pinAdam(5), workers)
			got := mustBytes(t, "col.Serialize", func(b *bytes.Buffer) error { return col.Serialize(b) })
			if wantCol == nil {
				wantCol = got
			} else if !bytes.Equal(got, wantCol) {
				t.Errorf("%v: ColLayer.ApplyAdam with %d workers differs from 1 worker", prec, workers)
			}
			if col.TouchedCols() != 0 {
				t.Errorf("%v: %d columns still touched after ApplyAdam", prec, col.TouchedCols())
			}
		}

		// Rows: sparse touch (nActive 9) and every row touched (nActive Out).
		for _, nActive := range []int{9, pinRowOut} {
			type walk struct {
				name string
				run  func(*RowLayer)
			}
			var walks []walk
			for _, workers := range []int{1, 2, 3, 7} {
				walks = append(walks, walk{fmt.Sprintf("ApplyAdam(%d)", workers),
					func(l *RowLayer) { l.ApplyAdam(pinKS(), pinAdam(5), workers) }})
				if nActive == pinRowOut {
					walks = append(walks, walk{fmt.Sprintf("ApplyAdamAll(%d)", workers),
						func(l *RowLayer) { l.ApplyAdamAll(pinKS(), pinAdam(5), workers) }})
				}
			}
			walks = append(walks, walk{"ApplyAdamRange", func(l *RowLayer) {
				// Boundaries inside a bitset word, on one, and an empty range.
				for _, r := range [][2]int{{0, 5}, {5, 32}, {32, 32}, {32, 67}, {67, pinRowOut}} {
					l.ApplyAdamRange(pinKS(), pinAdam(5), r[0], r[1])
				}
				l.FinishAdam()
			}})
			var want []byte
			for _, w := range walks {
				walkName, walk := w.name, w.run
				row := pinnedRow(o)
				row.EnableJournal()
				pinTrainRow(row, rand.New(rand.NewPCG(75, 5)), 5, nActive, false)
				touched := row.TouchedRows()
				walk(row)
				got := mustBytes(t, "row.Serialize", func(b *bytes.Buffer) error { return row.Serialize(b) })
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%v/active=%d: %s leaves different bytes than ApplyAdam(1)", prec, nActive, walkName)
				}
				if row.TouchedRows() != 0 {
					t.Errorf("%v/active=%d: %s left %d rows touched", prec, nActive, walkName, row.TouchedRows())
				}
				if n := len(row.DrainJournal()); n != touched {
					t.Errorf("%v/active=%d: %s journaled %d rows, %d were touched", prec, nActive, walkName, n, touched)
				}
			}
		}
	}
}

// The helpers below are the only places these tests reach under the
// exported surface.

func pinColPtr(w *ColWeights, j int) unsafe.Pointer { return pinVecPtr(w.vecs, j) }
func pinRowPtr(w *RowWeights, i int) unsafe.Pointer { return pinVecPtr(w.vecs, i) }

func pinVecPtr(s store, i int) unsafe.Pointer {
	if s.bf != nil {
		return unsafe.Pointer(&s.bf[i][0])
	}
	return unsafe.Pointer(&s.f32[i][0])
}
