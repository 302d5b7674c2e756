package replicate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// backoffSchedule drives n consecutive failed-sync pauses through a fresh
// client (under a canceled context, so no real sleeping happens) and
// returns the BackoffMS gauge after each — the exact schedule a replica
// would wait out.
func backoffSchedule(seed uint64, n int) []uint64 {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{
		ResyncBackoff:    100 * time.Millisecond,
		MaxResyncBackoff: time.Second,
		JitterSeed:       seed,
	}
	out := make([]uint64, n)
	for i := range out {
		c.backoff(ctx)
		out[i] = c.Stats.BackoffMS.Load()
	}
	return out
}

// TestResyncBackoffDeterministicSchedule: the re-sync backoff doubles per
// consecutive failure up to the cap, its jitter is a pure function of
// (seed, attempt) — same seed, same schedule; different seeds diverge — and
// a healthy sync resets the exponent.
func TestResyncBackoffDeterministicSchedule(t *testing.T) {
	const rounds = 8
	a := backoffSchedule(42, rounds)
	if b := backoffSchedule(42, rounds); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if c := backoffSchedule(43, rounds); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced the identical schedule %v", a)
	}
	for i, ms := range a {
		// base << i capped at 1000ms, plus jitter in [0, d/4).
		if ms < 100 || ms > 1250 {
			t.Fatalf("pause %d = %dms outside [100, 1250]", i, ms)
		}
	}
	if a[rounds-1] < 1000 {
		t.Fatalf("final pause %dms never reached the cap region", a[rounds-1])
	}
	for i := 1; i < 4; i++ {
		// Early doublings dominate jitter: each pre-cap pause grows.
		if a[i] <= a[i-1]/2 {
			t.Fatalf("pause %d = %dms did not grow from %dms", i, a[i], a[i-1])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{ResyncBackoff: 100 * time.Millisecond, JitterSeed: 42}
	c.backoff(ctx)
	c.backoff(ctx)
	if c.failures != 2 {
		t.Fatalf("failures = %d, want 2", c.failures)
	}
	c.backoffReset()
	if c.failures != 0 || c.Stats.BackoffMS.Load() != 0 {
		t.Fatalf("reset left failures=%d backoff=%dms", c.failures, c.Stats.BackoffMS.Load())
	}
}

// TestRequireQuantizedRejectsOtherWidths: a Client pinned to a width no
// hub streams (4 was one once) fails Run at once, without a single request
// — not a backoff loop counting every base it refuses as corrupt.
func TestRequireQuantizedRejectsOtherWidths(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for _, bits := range []int{4, 16, -8} {
		c := &Client{BaseURL: srv.URL, RequireQuantized: bits}
		done := make(chan error, 1)
		go func() { done <- c.Run(context.Background()) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "0 or 8") {
				t.Fatalf("RequireQuantized %d: Run returned %v, want a 0-or-8 error", bits, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("RequireQuantized %d: Run did not return", bits)
		}
		if got := c.Stats.Corrupt.Load(); got != 0 {
			t.Errorf("RequireQuantized %d: counted %d corrupt", bits, got)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the server saw %d requests, want 0", n)
	}
}
