package serving

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBatcherOverloadShedsAndDrains fills the admission queue
// deterministically (worker blocked inside a gated backend), asserts the
// excess is shed with ErrOverloaded, and asserts the queue fully drains
// afterward — every admitted request served, no leaked waiters, goroutine
// count back to baseline.
func TestBatcherOverloadShedsAndDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()

	stub := newGatedStub(1)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{Workers: 1, MaxBatch: 1, QueueCap: 3})

	var wg sync.WaitGroup
	served := make(chan Result, 4)
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := b.Submit(context.Background(), entry(1))
			if err != nil {
				t.Errorf("admitted request failed: %v", err)
				return
			}
			served <- r
		}()
	}

	// One request occupies the worker (blocked in the backend), three fill
	// the queue to capacity.
	submit()
	<-stub.entered
	for i := 0; i < 3; i++ {
		submit()
	}
	waitFor(t, "queue to fill", func() bool { return b.Stats().QueueDepth == 3 })

	// The queue is full: further requests shed immediately with
	// ErrOverloaded — no blocking, no queuing.
	for i := 0; i < 5; i++ {
		if _, err := b.Submit(context.Background(), entry(1)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit %d into full queue = %v, want ErrOverloaded", i, err)
		}
	}
	if st := b.Stats(); st.Shed != 5 {
		t.Errorf("Shed = %d, want 5", st.Shed)
	}

	// Release the backend: the in-flight flush and the three queued
	// requests (MaxBatch=1 → one flush each) all complete.
	for i := 0; i < 3; i++ {
		stub.release <- struct{}{}
		<-stub.entered
	}
	stub.release <- struct{}{}
	wg.Wait()
	close(served)
	got := 0
	for range served {
		got++
	}
	if got != 4 {
		t.Errorf("%d admitted requests served, want 4", got)
	}
	st := b.Stats()
	if st.QueueDepth != 0 || st.Served != 4 || st.Admitted != 4 {
		t.Errorf("post-drain stats: %+v", st)
	}

	// After the overload clears, the pipeline serves normally again.
	go func() {
		<-stub.entered
		stub.release <- struct{}{}
	}()
	if _, err := b.Submit(context.Background(), entry(2)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}

	// Shutdown leaks nothing: goroutine count returns to the pre-batcher
	// baseline (GC/scheduler noise tolerated briefly).
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
