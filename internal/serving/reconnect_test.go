package serving

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// TestRunLoadReconnects: a target that is down when the run starts (the
// rolling-restart window) produces reconnect retries, not errors — the
// requests complete once the server comes up within the reconnect budget.
func TestRunLoadReconnects(t *testing.T) {
	// Reserve an address, then close it so the first dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"labels": []int32{7}})
	})
	srv := &http.Server{Handler: mux}
	defer srv.Close()
	up := make(chan error, 1)
	go func() {
		// The "restart": the port stays dead for a few reconnect pauses.
		time.Sleep(3 * reconnectPause / 2)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			up <- err
			return
		}
		up <- nil
		srv.Serve(l2)
	}()

	entries := []slide.BatchEntry{
		{Indices: []int32{1}, Values: []float32{1}, K: 1},
		{Indices: []int32{2}, Values: []float32{1}, K: 1},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report := RunLoadOpts(ctx, "http://"+addr, nil, entries, 1, LoadOptions{})
	if err := <-up; err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	if report.Errors != 0 {
		t.Fatalf("%d errors (first: %s); restarts must not count as errors", report.Errors, report.FirstError)
	}
	if report.Reconnects == 0 {
		t.Fatal("no reconnects recorded against a down server")
	}
	for i, labels := range report.Responses {
		if len(labels) != 1 || labels[0] != 7 {
			t.Fatalf("response %d = %v after reconnect", i, labels)
		}
	}
}
