package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// testPredictor trains a tiny model through the public API and snapshots it.
func testPredictor(t *testing.T, opts ...slide.Option) (*slide.Predictor, *slide.Dataset) {
	t.Helper()
	train, test, err := slide.AmazonLike(1e-9, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := []slide.Option{
		slide.WithLearningRate(0.01),
		slide.WithWorkers(1),
		slide.WithSeed(9),
	}
	m, err := slide.New(train.Features(), 16, train.NumLabels(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := trainEpoch(m, train, 64); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot(), test
}

// trainEpoch runs one shuffled epoch of train in batches of batch as a
// one-epoch slide.Trainer session.
func trainEpoch(m *slide.Model, train *slide.Dataset, batch int) error {
	src, err := slide.NewDatasetSource(train, batch)
	if err != nil {
		return err
	}
	tr, err := slide.NewTrainer(m, src, slide.WithEpochs(1))
	if err != nil {
		return err
	}
	_, err = tr.Run(context.Background())
	return err
}

// testServer wires a predictor into a started pipeline server + httptest
// front end, cleaning both up with the test.
func testServer(t *testing.T, p Predictor, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(p, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func kp(k int) *int { return &k }

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServePredictRoundTrip(t *testing.T) {
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	_, ts := testServer(t, p, ServerConfig{DefaultK: 5})

	s := test.Sample(0)
	resp, body := postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Labels) != 3 || pr.Sampled {
		t.Errorf("response %+v", pr)
	}
	if pr.Version != p.Version() {
		t.Errorf("response version %d, snapshot %d", pr.Version, p.Version())
	}
	// Server output (through the micro-batcher) matches direct Predictor
	// output exactly.
	want := p.Predict(s.Indices, s.Values, 3)
	for i := range want {
		if pr.Labels[i] != want[i] {
			t.Errorf("served %v, predictor %v", pr.Labels, want)
		}
	}

	// Omitted values default to 1.0 per index; omitted k uses the default.
	resp, body = postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Labels) != 5 {
		t.Errorf("default-k response has %d labels, want 5", len(pr.Labels))
	}
}

func TestServeSampledAndFallback(t *testing.T) {
	// On an LSH model, sampled requests are served sampled.
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	_, ts := testServer(t, p, ServerConfig{DefaultK: 5})

	s := test.Sample(0)
	resp, body := postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(2), Sampled: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Sampled {
		t.Error("LSH model did not serve a sampled request sampled")
	}

	// On a dense model, a sampled request falls back to the exact path
	// instead of erroring (the documented ErrNoSampling fallback).
	dense, _ := testPredictor(t, slide.WithFullSoftmax())
	_, ts2 := testServer(t, dense, ServerConfig{DefaultK: 5})

	resp, body = postJSON(t, ts2, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(2), Sampled: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Sampled {
		t.Error("dense model claimed sampled retrieval")
	}
	want := dense.Predict(s.Indices, s.Values, 2)
	if len(pr.Labels) != len(want) {
		t.Fatalf("fallback labels %v, want %v", pr.Labels, want)
	}
	for i := range want {
		if pr.Labels[i] != want[i] {
			t.Errorf("fallback labels %v, want exact %v", pr.Labels, want)
		}
	}
}

func TestServePredictBatch(t *testing.T) {
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	for _, mode := range []struct {
		name   string
		direct bool
	}{{"batched", false}, {"direct", true}} {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := testServer(t, p, ServerConfig{DefaultK: 5, Direct: mode.direct})
			var reqs []predictRequest
			for i := 0; i < 4; i++ {
				s := test.Sample(i % test.Len())
				reqs = append(reqs, predictRequest{Indices: s.Indices, Values: s.Values})
			}
			resp, body := postJSON(t, ts, "/predict/batch", batchRequest{Samples: reqs, K: kp(2)})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var br batchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				t.Fatal(err)
			}
			if len(br.Labels) != 4 {
				t.Fatalf("batch returned %d results", len(br.Labels))
			}
			for i, r := range reqs {
				want := p.Predict(r.Indices, r.Values, 2)
				for j := range want {
					if br.Labels[i][j] != want[j] {
						t.Errorf("batch[%d] = %v, want %v", i, br.Labels[i], want)
					}
				}
			}
		})
	}
}

func TestServeBatchHonorsPerSampleOptions(t *testing.T) {
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	_, ts := testServer(t, p, ServerConfig{DefaultK: 5})

	s0, s1 := test.Sample(0), test.Sample(1)
	// Mixed Batch: per-sample k and a per-sample sampled flag, no top-level
	// overrides — both must be honored.
	resp, body := postJSON(t, ts, "/predict/batch", batchRequest{Samples: []predictRequest{
		{Indices: s0.Indices, Values: s0.Values, K: kp(1)},
		{Indices: s1.Indices, Values: s1.Values, K: kp(4), Sampled: true},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Labels) != 2 || len(br.Labels[0]) != 1 {
		t.Errorf("per-sample k dropped: %v", br.Labels)
	}
	if br.Sampled {
		t.Error("mixed batch claimed fully sampled service")
	}
	if want := p.Predict(s0.Indices, s0.Values, 1); br.Labels[0][0] != want[0] {
		t.Errorf("sample 0: %v, want %v", br.Labels[0], want)
	}
	if got, _ := p.PredictSampled(s1.Indices, s1.Values, 4); len(br.Labels[1]) != len(got) {
		t.Errorf("sample 1 sampled result has %d labels, want %d", len(br.Labels[1]), len(got))
	}

	// Top-level sampled on an LSH model: response reports sampled=true.
	resp, body = postJSON(t, ts, "/predict/batch", batchRequest{
		Samples: []predictRequest{{Indices: s0.Indices, Values: s0.Values}},
		K:       kp(2), Sampled: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if !br.Sampled {
		t.Error("all-sampled batch reported sampled=false")
	}
}

// TestServeValidation is the table-driven bad-input contract: every
// malformed shape returns 400 with a JSON error body — never a silent
// clamp, never a panic in the forward pass.
func TestServeValidation(t *testing.T) {
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	_, ts := testServer(t, p, ServerConfig{DefaultK: 5})
	s := test.Sample(0)
	labels := p.NumLabels()

	cases := []struct {
		name string
		path string
		body any
	}{
		{"empty indices", "/predict", predictRequest{}},
		{"negative index", "/predict", predictRequest{Indices: []int32{-1}, Values: []float32{1}}},
		{"out-of-range index", "/predict", predictRequest{Indices: []int32{99999999}, Values: []float32{1}}},
		{"more indices than values", "/predict", predictRequest{Indices: []int32{1, 2}, Values: []float32{1}}},
		{"more values than indices", "/predict", predictRequest{Indices: []int32{1}, Values: []float32{1, 2}}},
		{"explicit k zero", "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(0)}},
		{"negative k", "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(-3)}},
		{"k beyond label space", "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(labels + 1)}},
		{"empty batch", "/predict/batch", batchRequest{}},
		{"bad sample in batch", "/predict/batch", batchRequest{Samples: []predictRequest{
			{Indices: s.Indices, Values: s.Values},
			{Indices: []int32{99999999}},
		}}},
		{"batch-level k zero", "/predict/batch", batchRequest{
			Samples: []predictRequest{{Indices: s.Indices, Values: s.Values}}, K: kp(0)}},
		{"batch-level k beyond label space", "/predict/batch", batchRequest{
			Samples: []predictRequest{{Indices: s.Indices, Values: s.Values}}, K: kp(labels + 7)}},
		{"per-sample k beyond label space", "/predict/batch", batchRequest{
			Samples: []predictRequest{{Indices: s.Indices, Values: s.Values, K: kp(labels + 1)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not JSON with error field: %s", body)
			}
		})
	}

	// Malformed JSON (not expressible via the table's marshal path).
	resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	// The boundary case that must NOT 400: k exactly the label space.
	resp, body := postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(labels)})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("k == label space rejected: %d (%s)", resp.StatusCode, body)
	}

	// Bodies off the one-pass decoder's canonical subset are served as
	// encoding/json decodes them: a valid one answers with the canonical
	// body's labels, an invalid one with encoding/json's error text.
	canonical := predictRequest{Indices: s.Indices, Values: s.Values, K: kp(3)}
	one, err := json.Marshal(canonical)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(batchRequest{Samples: []predictRequest{canonical, canonical}})
	if err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, ts, "/predict", canonical)
	var want predictResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	oneKeyed := func(from, to string) []byte { return bytes.Replace(one, []byte(from), []byte(to), 1) }
	batchKeyed := func(from, to string) []byte { return bytes.Replace(batch, []byte(from), []byte(to), 1) }
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"capitalised key", "/predict", oneKeyed(`"indices"`, `"Indices"`)},
		{"unknown field", "/predict", oneKeyed(`"k":3`, `"k":3,"note":"x"`)},
		{"trailing bytes", "/predict", append(slices.Clone(one), " {nope"...)},
		{"batch capitalised key", "/predict/batch", batchKeyed(`"samples"`, `"Samples"`)},
		{"batch unknown field", "/predict/batch", batchKeyed(`"samples"`, `"note":null,"samples"`)},
		{"batch trailing bytes", "/predict/batch", append(slices.Clone(batch), "}"...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, body)
			}
			var got batchResponse
			if tc.path == "/predict" {
				var pr predictResponse
				err = json.Unmarshal(body, &pr)
				got.Labels = [][]int32{pr.Labels}
			} else {
				err = json.Unmarshal(body, &got)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, labels := range got.Labels {
				if !slices.Equal(labels, want.Labels) {
					t.Errorf("labels %v, canonical body's %v", labels, want.Labels)
				}
			}
		})
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"malformed", "/predict", []byte("{nope")},
		{"empty body", "/predict", nil},
		{"byte order mark", "/predict", append([]byte("\xef\xbb\xbf"), one...)},
		{"float index", "/predict", oneKeyed(`"indices":[`, `"indices":[1.0,`)},
		{"index beyond int32", "/predict", oneKeyed(`"indices":[`, `"indices":[2147483648,`)},
		{"value beyond float32", "/predict", oneKeyed(`"values":[`, `"values":[1e39,`)},
		{"k not an integer", "/predict", oneKeyed(`"k":3`, `"k":3.5`)},
		{"batch float index", "/predict/batch", batchKeyed(`"indices":[`, `"indices":[1.0,`)},
		{"batch truncated", "/predict/batch", batch[:len(batch)-2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var decodeErr error
			if tc.path == "/predict" {
				decodeErr = json.NewDecoder(bytes.NewReader(tc.body)).Decode(new(predictRequest))
			} else {
				decodeErr = json.NewDecoder(bytes.NewReader(tc.body)).Decode(new(batchRequest))
			}
			if decodeErr == nil {
				t.Fatalf("encoding/json accepts %q", tc.body)
			}
			resp, body := postRaw(t, ts, tc.path, tc.body)
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || er.Error != "invalid JSON: "+decodeErr.Error() {
				t.Errorf("status %d, error %q; want 400, %q", resp.StatusCode, er.Error, "invalid JSON: "+decodeErr.Error())
			}
		})
	}
}

func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServeHealthAndStats(t *testing.T) {
	p, test := testPredictor(t, slide.WithDWTA(3, 8))
	srv, ts := testServer(t, p, ServerConfig{DefaultK: 5})

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || int(health["labels"].(float64)) != test.NumLabels() {
		t.Errorf("health = %v", health)
	}

	// Serve a few requests, then check /stats reflects them.
	s := test.Sample(0)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(2)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup predict: %d", resp.StatusCode)
		}
	}
	sr, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "batched" || stats.Served != 3 || stats.Batches == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.SnapshotVersion != p.Version() {
		t.Errorf("stats version %d, snapshot %d", stats.SnapshotVersion, p.Version())
	}
	// The f32 snapshot ranked the three queries through its int8 screen,
	// each scoring at least its k rows and at most every row in f32.
	if stats.ScreenedQueries != 3 || stats.ScreenRowsPerQuery < 2 || stats.ScreenRowsPerQuery > float64(test.NumLabels()) {
		t.Errorf("stats screened %d queries, %.1f rows each of %d", stats.ScreenedQueries, stats.ScreenRowsPerQuery, test.NumLabels())
	}

	// Snapshot hot-swap: version advances, requests keep working.
	p2, _ := testPredictor(t, slide.WithDWTA(3, 8))
	srv.Publish(p2)
	resp, body := postJSON(t, ts, "/predict", predictRequest{Indices: s.Indices, Values: s.Values, K: kp(2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after swap: %d (%s)", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != p2.Version() {
		t.Errorf("post-swap response version %d, want %d", pr.Version, p2.Version())
	}
}

// gatedPredictor blocks PredictEntries until released — the deterministic
// overload fixture for the HTTP layer.
type gatedPredictor struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gatedPredictor) PredictEntries(entries []slide.BatchEntry) ([][]int32, error) {
	g.entered <- struct{}{}
	<-g.release
	out := make([][]int32, len(entries))
	for i := range out {
		out[i] = []int32{0}
	}
	return out, nil
}
func (g *gatedPredictor) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	return nil, errors.New("no sampling")
}
func (g *gatedPredictor) Sampled() bool    { return false }
func (g *gatedPredictor) Version() uint64  { return 1 }
func (g *gatedPredictor) Steps() int64     { return 0 }
func (g *gatedPredictor) NumLabels() int   { return 10 }
func (g *gatedPredictor) NumFeatures() int { return 100 }

// TestServeOverloadHTTP fills the admission queue behind a blocked backend
// and asserts the HTTP contract: 429 with a parseable Retry-After on the
// excess, 200 for everything admitted once the backend drains.
func TestServeOverloadHTTP(t *testing.T) {
	g := &gatedPredictor{entered: make(chan struct{}, 64), release: make(chan struct{})}
	srv, ts := testServer(t, g, ServerConfig{
		DefaultK: 5,
		Batch:    Config{Workers: 1, MaxBatch: 1, QueueCap: 2},
	})

	body := func() []byte {
		b, _ := json.Marshal(predictRequest{Indices: []int32{1}, Values: []float32{1}, K: kp(1)})
		return b
	}()
	post := func() *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the worker, fill the two queue slots.
	done := make(chan *http.Response, 3)
	for i := 0; i < 3; i++ {
		go func() { done <- post() }()
	}
	<-g.entered
	deadline := time.Now().Add(2 * time.Second)
	for srv.batcher.Stats().QueueDepth != 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next request is shed with 429 + Retry-After.
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 0 {
		t.Errorf("Retry-After = %q, want a non-negative integer", ra)
	}
	resp.Body.Close()

	// Drain: the three admitted requests complete with 200.
	go func() {
		for {
			select {
			case g.release <- struct{}{}:
				<-g.entered
			case <-time.After(200 * time.Millisecond):
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		r := <-done
		if r.StatusCode != http.StatusOK {
			t.Errorf("admitted request got %d", r.StatusCode)
		}
		r.Body.Close()
	}
	if st := srv.batcher.Stats(); st.Shed != 1 || st.QueueDepth != 0 {
		t.Errorf("post-drain stats: shed %d, depth %d", st.Shed, st.QueueDepth)
	}
}

// TestServeLoadgenEndToEnd drives the deterministic load generator against
// the micro-batched server and the direct (-no-batch) server over the same
// snapshot and asserts (1) zero errors, (2) every batched response is
// bit-identical to the direct Predictor output, and (3) the batcher
// actually coalesced (mean batch > 1) under concurrent closed-loop load.
func TestServeLoadgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop load test skipped in -short mode")
	}
	p, _ := testPredictor(t, slide.WithDWTA(3, 8))
	spec := LoadSpec{Scale: 1e-9, Seed: 5, Requests: 512, K: min(4, p.NumLabels()), MixedK: true}
	entries, err := BuildLoad(spec)
	if err != nil {
		t.Fatal(err)
	}

	run := func(direct bool) (LoadReport, *Server) {
		srv, ts := testServer(t, p, ServerConfig{DefaultK: 5, Direct: direct})
		report := RunLoadOpts(context.Background(), ts.URL, nil, entries, 64, LoadOptions{})
		return report, srv
	}

	batched, bsrv := run(false)
	if batched.Errors != 0 {
		t.Fatalf("batched run: %d errors (%s)", batched.Errors, batched.FirstError)
	}
	direct, _ := run(true)
	if direct.Errors != 0 {
		t.Fatalf("direct run: %d errors (%s)", direct.Errors, direct.FirstError)
	}

	for i := range entries {
		want := p.Predict(entries[i].Indices, entries[i].Values, entries[i].K)
		got := batched.Responses[i]
		if len(got) != len(want) {
			t.Fatalf("request %d: batched %v, direct predictor %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("request %d: batched %v, direct predictor %v — not bit-identical", i, got, want)
			}
			if got[j] != direct.Responses[i][j] {
				t.Fatalf("request %d: batched %v, direct server %v", i, got, direct.Responses[i])
			}
		}
	}

	st := bsrv.batcher.Stats()
	if st.MeanBatch <= 1 {
		t.Errorf("64 concurrent closed-loop clients never coalesced: mean batch %.2f over %d batches",
			st.MeanBatch, st.Batches)
	}
	t.Logf("batched: %.0f qps (mean batch %.1f, p50 %v, p99 %v); Direct: %.0f qps; ratio %.2fx",
		batched.QPS, st.MeanBatch, batched.P50, batched.P99, direct.QPS, batched.QPS/direct.QPS)
}
