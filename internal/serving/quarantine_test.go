package serving

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// checkedStub is a stubPredictor that can report non-finite weights — the
// shape the quarantine path sees from slide.Predictor.
type checkedStub struct {
	*stubPredictor
	err error
}

func (c *checkedStub) CheckFinite() error { return c.err }

// TestPublishQuarantinesNonFinite: a candidate snapshot failing its finite
// check is refused — the pipeline keeps serving the last good version,
// /stats counts the quarantine with its reason, and /healthz/ready reports
// unready until a clean snapshot lands.
func TestPublishQuarantinesNonFinite(t *testing.T) {
	srv := NewServer(&stubPredictor{version: 1}, ServerConfig{DefaultK: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	mgr := srv.mgr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz/ready"); code != http.StatusOK {
		t.Fatalf("ready before quarantine = %d, want 200", code)
	}

	poisonErr := errors.New("network: snapshot step 20: layer: non-finite parameter: hidden bias[0]")
	mgr.Publish(&checkedStub{stubPredictor: &stubPredictor{version: 2}, err: poisonErr})

	if got := mgr.Current().Version(); got != 1 {
		t.Fatalf("current version %d after quarantine, want the last good 1", got)
	}
	if mgr.Quarantined() != 1 || !mgr.QuarantinedLast() {
		t.Fatalf("quarantined=%d last=%v, want 1/true", mgr.Quarantined(), mgr.QuarantinedLast())
	}
	if code, body := get("/healthz/ready"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "quarantined") {
		t.Fatalf("ready during quarantine = %d %q, want 503 naming the quarantine", code, body)
	}
	code, body := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var stats struct {
		Quarantined      uint64 `json:"quarantined"`
		QuarantineReason string `json:"quarantine_reason"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || !strings.Contains(stats.QuarantineReason, "non-finite") {
		t.Fatalf("stats quarantine = %+v", stats)
	}

	// A clean candidate (checker passing) swaps in and clears readiness.
	mgr.Publish(&checkedStub{stubPredictor: &stubPredictor{version: 3}})
	if got := mgr.Current().Version(); got != 3 {
		t.Fatalf("current version %d after clean publish, want 3", got)
	}
	if mgr.QuarantinedLast() {
		t.Fatal("QuarantinedLast still set after a clean swap")
	}
	if code, _ := get("/healthz/ready"); code != http.StatusOK {
		t.Fatalf("ready after clean publish = %d, want 200", code)
	}
	// The count is cumulative history, not state.
	if mgr.Quarantined() != 1 {
		t.Fatalf("quarantined count %d, want 1", mgr.Quarantined())
	}
}
