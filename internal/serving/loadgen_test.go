package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestBuildLoadDeterministic(t *testing.T) {
	spec := LoadSpec{Scale: 1e-9, Seed: 7, Requests: 40, K: 4, MixedK: true}
	a, err := BuildLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 40 {
		t.Fatalf("got %d entries", len(a))
	}
	for i := range a {
		if a[i].K != 1+i%4 {
			t.Errorf("entry %d: k = %d, want %d", i, a[i].K, 1+i%4)
		}
		if len(a[i].Indices) == 0 || len(a[i].Indices) != len(a[i].Values) {
			t.Errorf("entry %d malformed: %d indices, %d values", i, len(a[i].Indices), len(a[i].Values))
		}
		if len(a[i].Indices) != len(b[i].Indices) || a[i].K != b[i].K {
			t.Fatalf("entry %d differs between identical specs", i)
		}
		for j := range a[i].Indices {
			if a[i].Indices[j] != b[i].Indices[j] || a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("entry %d payload differs between identical specs", i)
			}
		}
	}
	if _, err := BuildLoad(LoadSpec{Scale: 1e-9, Seed: 1, Requests: 0, K: 1}); err == nil {
		t.Error("Requests=0 did not error")
	}
}

// TestRunLoadClosedLoop drives the generator against a stub server that
// sheds the first few requests with 429 + Retry-After, then echoes k. The
// report must show every request completed (429s retried, not dropped),
// zero errors, and index-aligned responses.
func TestRunLoadClosedLoop(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/predict" || r.Method != http.MethodPost {
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		if hits.Add(1) <= 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		var req loadReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(loadResp{Labels: []int32{int32(req.K)}})
	}))
	defer ts.Close()

	entries, err := BuildLoad(LoadSpec{Scale: 1e-9, Seed: 3, Requests: 30, K: 5, MixedK: true})
	if err != nil {
		t.Fatal(err)
	}
	report := RunLoadOpts(context.Background(), ts.URL, ts.Client(), entries, 8, LoadOptions{})
	if report.Errors != 0 {
		t.Fatalf("errors: %d (%s)", report.Errors, report.FirstError)
	}
	if report.Requests != 30 || report.Retried429 != 3 {
		t.Errorf("requests %d (want 30), retried %d (want 3)", report.Requests, report.Retried429)
	}
	if report.QPS <= 0 || report.P50 <= 0 || report.P99 < report.P50 {
		t.Errorf("timing stats: qps %.1f p50 %v p99 %v", report.QPS, report.P50, report.P99)
	}
	for i, resp := range report.Responses {
		if len(resp) != 1 || resp[0] != int32(entries[i].K) {
			t.Fatalf("response %d = %v, want [%d] — misaligned", i, resp, entries[i].K)
		}
	}
}

// TestRunLoadDeadlineAndRetryCap covers the degraded-serving wire contract
// and the Retry-After cap: a server hinting "Retry-After: 100000" must not
// wedge the client (the cap bounds the wait at one second), deadline_ms
// must reach the server, 504s count as deadline sheds rather than errors,
// and degraded responses are tallied.
func TestRunLoadDeadlineAndRetryCap(t *testing.T) {
	var hits atomic.Int64
	var badDeadline atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req loadReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.DeadlineMS != 250 {
			badDeadline.Add(1)
		}
		switch hits.Add(1) {
		case 1: // hostile hint: uncapped, this would stall the run for a day
			w.Header().Set("Retry-After", "100000")
			w.WriteHeader(http.StatusTooManyRequests)
		case 3:
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		default:
			json.NewEncoder(w).Encode(loadResp{Labels: []int32{int32(req.K)}, Degraded: true})
		}
	}))
	defer ts.Close()

	entries, err := BuildLoad(LoadSpec{Scale: 1e-9, Seed: 3, Requests: 3, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	report := RunLoadOpts(context.Background(), ts.URL, ts.Client(), entries, 1,
		LoadOptions{Deadline: 250 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v — Retry-After hint was honored uncapped", elapsed)
	}
	if report.Errors != 0 {
		t.Fatalf("errors: %d (%s)", report.Errors, report.FirstError)
	}
	if report.Retried429 != 1 || report.Deadline504 != 1 || report.Degraded != 2 {
		t.Fatalf("retried %d deadline504 %d degraded %d, want 1/1/2",
			report.Retried429, report.Deadline504, report.Degraded)
	}
	if n := badDeadline.Load(); n != 0 {
		t.Fatalf("%d requests arrived without deadline_ms = 250", n)
	}
	// The shed request has no response; the served ones stay index-aligned.
	if report.Responses[1] != nil {
		t.Fatal("504-shed request recorded a response")
	}
	if report.Responses[0] == nil || report.Responses[2] == nil {
		t.Fatal("served requests missing responses")
	}
}
