package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// checkDecode decodes body as a T both ways: whenever the one-pass decoder
// accepts body, encoding/json must accept it too and decode it to a
// reflect.DeepEqual value (so nil and empty slices differ), and the full
// decode must give encoding/json's value or its error text. It reports
// whether the one-pass decoder accepted.
func checkDecode[T predictRequest | batchRequest](t *testing.T, d *requestDecoder, body []byte) bool {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var fast T
	accepted := d.fast(body, &fast)
	if accepted {
		if wantErr != nil {
			t.Fatalf("%T: one-pass decoder accepted %q, encoding/json: %v", fast, body, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%T: %q decoded to\n%#v\nencoding/json:\n%#v", fast, body, fast, want)
		}
	}
	var got T
	err := d.decode(body, &got)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%T: %q: error %v, encoding/json %v", got, body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q decoded to\n%#v\nencoding/json:\n%#v", got, body, got, want)
	}
	return accepted
}

// decodeSeeds are bodies at the edges of the canonical subset: each is
// tried as a request and wrapped as a batch's one sample.
var decodeSeeds = []string{
	`{"indices":[1,5,9],"values":[1,1,1],"k":3}`,
	`{"indices":[1,5,9],"values":[],"k":3}`,
	`{"indices":[1,5,9],"k":3}`,
	`{"indices":[1,5,9],"values":null}`,
	`{"indices":[],"values":[]}`,
	`{"indices":[1],"indices":[2]}`,
	`{"Indices":[1],"values":[1]}`,
	`{"indices":[1],"VALUES":[1]}`,
	`{"indices":[1],"values":[1]}`,
	`{"indices":[1],"values":[1],"note":"x"}`,
	`{"indices":[1],"values":[-0]}`,
	`{"indices":[1],"values":[01]}`,
	`{"indices":[1],"values":[1.]}`,
	`{"indices":[1],"values":[.5]}`,
	`{"indices":[1],"values":[1e39]}`,
	`{"indices":[1],"values":[1.4e-45]}`,
	`{"indices":[1],"values":[-3.4028235e+38, 1E-7 ,0.5e+2]}`,
	`{"indices":[2147483648],"values":[1]}`,
	`{"indices":[-2147483648,2147483647],"values":[1,2]}`,
	`{"indices":[1.0],"values":[1]}`,
	`{"indices":[-0],"values":[1]}`,
	`{"indices":[1],"k":-0,"deadline_ms":9223372036854775807}`,
	`{"indices":[1],"k":9223372036854775808}`,
	`{"indices":[1],"k":1e2}`,
	`{"indices":[1],"sampled":true,"deadline_ms":-5}`,
	`{"indices":[1],"sampled":null}`,
	`{"indices":[1],"sampled":1}`,
	` { "indices" : [ 1 , 2 ] , "values" : [ 0.25 , -1 ] } `,
	`{"indices":[1],}`,
	`{"indices":[1,]}`,
	`{"indices":[1] "k":2}`,
	`{"samples":[{"indices":[1]}]}`,
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
		f.Add([]byte(`{"samples":[` + s + `],"k":2,"sampled":true}`))
	}
	for _, s := range []string{
		`{}`, `null`, ``, "\xef\xbb\xbf" + decodeSeeds[0], decodeSeeds[0] + `}`,
		decodeSeeds[0] + ` x`, decodeSeeds[0] + "\n", `[]`, `{"samples":[]}`,
		`{"samples":null}`, `{"samples":[{},{"indices":[3]}],"deadline_ms":10}`,
		`{"samples":[{"indices":[1]}],"samples":[]}`, `{"Samples":[{"indices":[1]}]}`,
		`{"samples":[{"indices":[1]}],"indices":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d := new(requestDecoder)
		checkDecode[predictRequest](t, d, body)
		checkDecode[batchRequest](t, d, body)
	})
}

// randomValue draws float32s over the whole finite range, with the values
// whose shortest form is awkward drawn often.
func randomValue(rng *rand.Rand) float32 {
	switch rng.IntN(8) {
	case 0:
		return []float32{float32(math.Copysign(0, -1)), 0, 1, -1,
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.MaxFloat32, -math.MaxFloat32,
			math.Float32frombits(0x007fffff)}[rng.IntN(9)]
	case 1:
		return rng.Float32()
	}
	for {
		x := math.Float32frombits(rng.Uint32())
		if !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
			return x
		}
	}
}

// benchSample is the benchmark client's wire sample: values always sent.
type benchSample struct {
	Indices []int32   `json:"indices"`
	Values  []float32 `json:"values"`
}

// canonicalBodies marshals features-long samples in the shapes clients
// send: the benchmark client's (values always present; sampled at the
// top when set), serving.BuildLoad's loadReq (values omitted when empty,
// k always, deadline_ms when set) and requests with per-sample options.
func canonicalBodies(t *testing.T, rng *rand.Rand, features int) (single, batch [][]byte) {
	t.Helper()
	sample := func() benchSample {
		s := benchSample{Indices: make([]int32, features), Values: make([]float32, features)}
		for i := range s.Indices {
			s.Indices[i] = rng.Int32()
			if rng.IntN(2) == 0 {
				s.Indices[i] = -s.Indices[i] - 1
			}
			s.Values[i] = randomValue(rng)
		}
		return s
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	samples := make([]benchSample, 32)
	for i := range samples {
		samples[i] = sample()
	}
	for _, sampled := range []bool{false, true} {
		single = append(single, marshal(struct {
			benchSample
			Sampled bool `json:"sampled,omitempty"`
		}{samples[0], sampled}))
		batch = append(batch, marshal(struct {
			Samples []benchSample `json:"samples"`
			Sampled bool          `json:"sampled,omitempty"`
		}{samples, sampled}))
	}
	for _, deadline := range []int64{0, 250} {
		for _, s := range []benchSample{samples[1], {Indices: samples[2].Indices}} {
			single = append(single, marshal(loadReq{Indices: s.Indices, Values: s.Values, K: 1 + rng.IntN(20), DeadlineMS: deadline}))
		}
	}
	reqs := make([]predictRequest, len(samples))
	for i, s := range samples {
		reqs[i] = predictRequest{Indices: s.Indices, Values: s.Values, Sampled: i%3 == 0, DeadlineMS: int64(i)}
		if i%2 == 0 {
			reqs[i].K = kp(i)
		}
		single = append(single, marshal(reqs[i]))
	}
	batch = append(batch, marshal(batchRequest{Samples: reqs, K: kp(7), Sampled: true, DeadlineMS: 30}))
	return single, batch
}

// TestCanonicalBodiesTakeFastPath guards the gain: every body the clients
// marshal takes the one-pass decoder and decodes as encoding/json does,
// and a 32-sample body decodes in a fixed number of allocations however
// many features its samples hold.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	d := new(requestDecoder)
	for _, features := range []int{1, 8, 200} {
		for range 5 {
			single, batch := canonicalBodies(t, rng, features)
			for _, b := range single {
				if !checkDecode[predictRequest](t, d, b) {
					t.Fatalf("request body fell back to encoding/json: %.200q", b)
				}
			}
			for _, b := range batch {
				if !checkDecode[batchRequest](t, d, b) {
					t.Fatalf("batch body fell back to encoding/json: %.200q", b)
				}
			}
		}
	}
	if !checkDecode[predictRequest](t, d, []byte(`{"indices":[1,5,9],"values":[1,1,1],"k":3}`)) {
		t.Fatal("the smoke test's body fell back to encoding/json")
	}
	// The subset's edges: these decode the same either way, and are left
	// to encoding/json.
	for _, b := range []string{
		`{"indices":[1],"values":[1]} x`, `{"indices":[1],"values":[1]}}`, `null`,
		`{"indices":[1],"values":null}`, `{"indices":[1],"note":1}`, `{"Indices":[1]}`,
		`{"indices":[1],"indices":[1]}`, `{"ind\u0069ces":[1]}`, "\xef\xbb\xbf{}",
	} {
		if checkDecode[predictRequest](t, d, []byte(b)) {
			t.Errorf("%q took the one-pass decoder", b)
		}
	}

	allocs := func(features int) float64 {
		_, batch := canonicalBodies(t, rng, features)
		body := batch[0] // the benchmark client's 32-sample shape
		return testing.AllocsPerRun(20, func() {
			var br batchRequest
			if !d.fast(body, &br) || len(br.Samples) != 32 {
				t.Fatal("benchmark body fell back to encoding/json")
			}
		})
	}
	small, large := allocs(4), allocs(400)
	t.Logf("allocations per 32-sample body: %v at 4 features, %v at 400", small, large)
	if small != large || small > 3 {
		t.Errorf("allocations per 32-sample body: %v at 4 features, %v at 400; want the same, at most 3", small, large)
	}
}

// checkFloat holds the decoder's float scan to strconv.ParseFloat(s, 32),
// the call encoding/json makes. When s is one JSON number the scan must
// take all of it, succeed exactly when ParseFloat does, and give its
// bits; when s is not, the scan must not take it whole. Whitespace
// before the number is skipped, as between any two JSON tokens.
func checkFloat(t *testing.T, s string) {
	t.Helper()
	d := &requestDecoder{b: []byte(s)}
	got, ok := d.float()
	num := strings.TrimLeft(s, " \t\n\r")
	if !isJSONNumber(num) {
		if ok && d.i == len(s) {
			t.Fatalf("%q is not a JSON number, scanned to %v", s, got)
		}
		return
	}
	want, err := strconv.ParseFloat(num, 32)
	switch {
	case d.i != len(s):
		t.Fatalf("%q: scan stopped at byte %d", s, d.i)
	case ok != (err == nil):
		t.Fatalf("%q: ok %v, strconv.ParseFloat: %v", s, ok, err)
	case ok && math.Float32bits(got) != math.Float32bits(float32(want)):
		t.Fatalf("%q: %v (%#08x), strconv.ParseFloat %v (%#08x)",
			s, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
	}
}

// isJSONNumber reports whether s is one JSON number and nothing else.
func isJSONNumber(s string) bool {
	return s != "" && strings.IndexByte("-0123456789", s[0]) >= 0 &&
		'0' <= s[len(s)-1] && s[len(s)-1] <= '9' && json.Valid([]byte(s))
}

// floatSeeds sit where the fast path's rule decides: float32 midpoints
// written out exactly, and numbers whose nearest float64 is one; the ends
// of the normal range, subnormals and overflow; signed zeros; mantissas
// at 19 and 20 digits, at 2^53 and at 2^64 + 1, which wraps a uint64 to
// 1; exponents at ±22 and ±23.
var floatSeeds = []string{
	"16777217", "16777219", "33554434", "8388608.5", "-8388609.5",
	"0.5000000298023224", "0.5000000298023223", "0.500000029802322387695312",
	"1.000000059604644775390625", "1.0000000596046448",
	"3.4028235e38", "3.4028234663852886e38", "3.4028235677973366e38",
	"3.4028235677973367e38", "3.5e38", "1e39", "-1e39", "1e-46",
	"1.17549435e-38", "1.1754942e-38", "1.4e-45", "7e-46", "7.1e-46",
	"-0", "0", "0.0", "-0.0", "0e5", "-0E-7", "0.000",
	"1234567890123456789", "12345678901234567890", "18446744073709551617",
	"1.8446744073709551617e-3", "9007199254740992",
	"9007199254740993", "0.9007199254740991", "1.0000000000000000000",
	"1e22", "1e23", "1e-22", "1e-23", "123e-22", "123e-23", "4e22",
	"0.61710465", "-0.087355494", "1.0596576", "1E+2", "1e+0020",
	"1e99999999999999999999", "1e-99999999999999999999",
	"00", "01", "-", "1.", ".5", "1e", "1e+", "+1", "Inf", "NaN", "0x1p3",
	"1_0", " 1", "\t-2.5e-3", "1 ",
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add(s)
	}
	f.Fuzz(checkFloat)
}

// TestParseFloatMatchesStrconv sweeps the forms clients write float32s
// in, decimal forms of random float64s at 1 to 20 significant digits,
// and float32 rounding midpoints in the forms a float64 prints them.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 2))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for range n {
		x := randomValue(rng)
		for _, c := range []byte{'g', 'f', 'e'} {
			checkFloat(t, strconv.FormatFloat(float64(x), c, -1, 32))
		}
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat(t, string(b))
		y := math.Float64frombits(rng.Uint64())
		if math.IsNaN(y) || math.IsInf(y, 0) {
			continue
		}
		if rng.IntN(2) == 0 {
			y = float64(float32(rng.NormFloat64()) * 0.3)
		}
		checkFloat(t, strconv.FormatFloat(y, 'e', rng.IntN(20), 64))
		// The midpoint above x, and its shortest float64 text.
		if a := math.Abs(float64(x)); a >= 0x1p-126 && a < math.MaxFloat32 {
			next := float64(math.Nextafter32(float32(a), math.MaxFloat32))
			m := a + (next-a)/2
			checkFloat(t, strconv.FormatFloat(m, 'g', -1, 64))
			checkFloat(t, strconv.FormatFloat(m, 'f', -1, 64))
		}
	}
	for _, s := range floatSeeds {
		checkFloat(t, s)
	}
}

// BenchmarkDecodeBatch decodes the benchmark client's body: 32 samples of
// 51 features, values in float32's shortest text as json.Marshal writes
// them, drawn like the synthetic datasets' (1 + N·0.1 or N·0.3).
func BenchmarkDecodeBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 53))
	samples := make([]benchSample, 32)
	for i := range samples {
		s := benchSample{Indices: make([]int32, 51), Values: make([]float32, 51)}
		for j := range s.Indices {
			s.Indices[j] = rng.Int32N(2700)
			s.Values[j] = float32(rng.NormFloat64()) * 0.3
			if j%2 == 0 {
				s.Values[j] = 1 + float32(rng.NormFloat64())*0.1
			}
		}
		samples[i] = s
	}
	body, err := json.Marshal(struct {
		Samples []benchSample `json:"samples"`
		Sampled bool          `json:"sampled,omitempty"`
	}{samples, true})
	if err != nil {
		b.Fatal(err)
	}
	d := new(requestDecoder)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var br batchRequest
		if !d.fast(body, &br) || len(br.Samples) != 32 {
			b.Fatal("benchmark body fell back to encoding/json")
		}
	}
}
