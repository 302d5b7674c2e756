package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// sampledStub is a stubPredictor whose sampled path works: degraded
// responses are [version, k, -1], distinguishable from the exact path's
// [version, k]. Only the exact path is gated, so degraded flushes complete
// without a release — exactly the property degradation is for.
type sampledStub struct{ *stubPredictor }

func (s sampledStub) Sampled() bool { return true }

func (s sampledStub) PredictSampled(indices []int32, values []float32, k int) ([]int32, error) {
	return []int32{int32(s.version), int32(k), -1}, nil
}

// deadlineOnlyCtx carries a deadline without ever firing Done — the shape
// of a deadline that arrives as request metadata (the wire deadline_ms
// field) rather than as transport cancellation. It exercises the
// flush-time deadline check, which the cancelling-context path would
// otherwise always win. The budget starts counting when Submit first asks
// for the deadline, so however late the submitting goroutine is scheduled,
// admission sees the whole budget.
type deadlineOnlyCtx struct {
	context.Context
	budget time.Duration
	mu     sync.Mutex
	d      time.Time
}

func (c *deadlineOnlyCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.d.IsZero() {
		c.d = time.Now().Add(c.budget)
	}
	return c.d, true
}

func TestSubmitExpiredContext(t *testing.T) {
	mgr := NewSnapshotManager(&stubPredictor{version: 1})
	b := NewBatcher(mgr, Config{MaxBatch: 1, Workers: 1})
	defer b.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := b.Submit(ctx, entry(3))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired-context Submit err = %v, want ErrDeadline", err)
	}
	st := b.Stats()
	if st.Deadlined != 1 || st.Admitted != 0 {
		t.Fatalf("stats %+v, want 1 deadlined, 0 admitted", st)
	}
}

// TestFlushRejectsPassedDeadline: a request whose deadline expires while it
// waits behind a slow flush fails with ErrDeadline at flush time, without
// touching the backend.
func TestFlushRejectsPassedDeadline(t *testing.T) {
	stub := newGatedStub(1)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{MaxBatch: 1, Workers: 1, QueueCap: 8})
	defer b.Close()

	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), entry(1))
		first <- err
	}()
	<-stub.entered // the worker is now stuck inside the backend

	second := make(chan error, 1)
	ctx := &deadlineOnlyCtx{Context: context.Background(), budget: 20 * time.Millisecond}
	go func() {
		_, err := b.Submit(ctx, entry(2))
		second <- err
	}()
	waitFor(t, "second request queued", func() bool { return b.Stats().Admitted == 2 })

	d, _ := ctx.Deadline() // the one admission saw
	time.Sleep(time.Until(d) + time.Millisecond)
	stub.release <- struct{}{} // unblock the first flush, now past the queued deadline

	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	if err := <-second; !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued-past-deadline err = %v, want ErrDeadline", err)
	}
	st := b.Stats()
	if st.Deadlined != 1 || st.Served != 1 {
		t.Fatalf("stats %+v, want 1 deadlined + 1 served", st)
	}
}

// TestAwaitMapsDeadlineExceeded: when the submitting context itself times
// out while queued, the caller gets ErrDeadline (counted as a deadline
// miss), not a bare context error counted as a cancellation.
func TestAwaitMapsDeadlineExceeded(t *testing.T) {
	stub := newGatedStub(1)
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{MaxBatch: 1, Workers: 1, QueueCap: 8})
	defer b.Close()

	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), entry(1))
		first <- err
	}()
	<-stub.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, entry(2))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("timed-out Submit err = %v, want ErrDeadline", err)
	}
	st := b.Stats()
	if st.Deadlined != 1 || st.Canceled != 0 {
		t.Fatalf("stats %+v, want the timeout counted deadlined, not canceled", st)
	}
	stub.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}

// TestDegradedBeforeShed is the tiered-degradation scenario: under queue
// pressure the pipeline downshifts to sampled prediction (marked Degraded,
// still the correct snapshot version) instead of shedding; when pressure
// clears it returns to exact; and only a full queue sheds.
func TestDegradedBeforeShed(t *testing.T) {
	stub := newGatedStub(7)
	mgr := NewSnapshotManager(sampledStub{stub})
	b := NewBatcher(mgr, Config{
		MaxBatch: 1, Workers: 1, QueueCap: 4,
		Degrade: DegradePolicy{HighWater: 0.5, LowWater: 0.25, After: 1},
	})
	defer b.Close()

	type outcome struct {
		r   Result
		err error
	}
	submit := func() chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			r, err := b.Submit(context.Background(), entry(3))
			ch <- outcome{r, err}
		}()
		return ch
	}

	// A occupies the only worker inside the gated exact path (queue was
	// empty at its flush: not degraded). B, C, D stack up behind it, one at
	// a time so queue order — and thus flush order — is deterministic.
	a := submit()
	<-stub.entered
	queued := func(n int) func() bool {
		return func() bool { return b.Stats().QueueDepth == n }
	}
	bb := submit()
	waitFor(t, "B queued", queued(1))
	c := submit()
	waitFor(t, "C queued", queued(2))
	d := submit()
	waitFor(t, "D queued", queued(3))

	// A fourth request fills the queue; the next one past capacity sheds.
	fill := submit()
	waitFor(t, "queue full", queued(4))
	if _, err := b.Submit(context.Background(), entry(3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-full submit err = %v, want ErrOverloaded", err)
	}

	stub.release <- struct{}{} // A completes exact
	ra := <-a
	if ra.err != nil || ra.r.Degraded {
		t.Fatalf("A = %+v, want exact success", ra)
	}

	// B flushes with depth 3 >= high water: degraded mode engages, and B is
	// served through the sampled path without needing a release.
	rb := <-bb
	if rb.err != nil {
		t.Fatalf("B failed: %v", rb.err)
	}
	if !rb.r.Degraded {
		t.Fatal("B served exact under pressure, want degraded")
	}
	if len(rb.r.Labels) != 3 || rb.r.Labels[0] != 7 || rb.r.Labels[2] != -1 {
		t.Fatalf("B labels %v, want the sampled-path shape for version 7", rb.r.Labels)
	}
	if rb.r.Version != 7 {
		t.Fatalf("B version %d, want 7", rb.r.Version)
	}
	rc := <-c
	if rc.err != nil || !rc.r.Degraded {
		t.Fatalf("C = %+v, want degraded success", rc)
	}

	// D flushes with depth 1 <= low water (0.25*4): mode disengages and D
	// goes back through the gated exact path, as does the filler behind it.
	<-stub.entered
	stub.release <- struct{}{}
	rd := <-d
	if rd.err != nil || rd.r.Degraded {
		t.Fatalf("D = %+v, want exact success after recovery", rd)
	}
	<-stub.entered
	stub.release <- struct{}{}
	rf := <-fill
	if rf.err != nil || rf.r.Degraded {
		t.Fatalf("filler = %+v, want exact success after recovery", rf)
	}

	st := b.Stats()
	if st.DegradedServed < 2 {
		t.Fatalf("stats %+v, want >= 2 degraded-served", st)
	}
	if st.Shed != 1 {
		t.Fatalf("stats %+v, want exactly the one over-full shed", st)
	}
	if st.DegradeSwitches < 2 {
		t.Fatalf("stats %+v, want mode to have engaged and disengaged", st)
	}
}

func TestDegradeHysteresis(t *testing.T) {
	p := DegradePolicy{HighWater: 0.5, LowWater: 0.25, After: 2}
	var d degradeState
	steps := []struct {
		depth int
		want  bool
	}{
		{4, false}, // hi 1/2
		{1, false}, // lo resets hi
		{4, false}, // hi 1/2
		{4, true},  // hi 2/2 → on
		{1, true},  // lo 1/2
		{3, true},  // middle resets both
		{1, true},  // lo 1/2
		{1, false}, // lo 2/2 → off
	}
	for i, s := range steps {
		if got := d.observe(s.depth, 8, p); got != s.want {
			t.Fatalf("step %d (depth %d): mode %v, want %v", i, s.depth, got, s.want)
		}
	}
	if _, switches := d.mode(); switches != 2 {
		t.Fatalf("switches = %d, want 2", switches)
	}
}

func TestSnapshotAge(t *testing.T) {
	mgr := NewSnapshotManager(&stubPredictor{version: 1})
	if age := mgr.Age(); age < 0 || age > time.Minute {
		t.Fatalf("fresh snapshot age %v", age)
	}
	before := mgr.Age()
	time.Sleep(5 * time.Millisecond)
	if mgr.Age() <= before {
		t.Fatal("age did not advance")
	}
	mgr.Publish(&stubPredictor{version: 2})
	if mgr.Age() > 5*time.Millisecond {
		t.Fatalf("age %v after publish, want reset", mgr.Age())
	}
}

// TestDegradedFallsBackWithoutSampling: a predictor without tables never
// degrades — pressure goes straight to the exact path (and eventually
// shedding), never to a failing sampled call.
func TestDegradedFallsBackWithoutSampling(t *testing.T) {
	stub := newGatedStub(1) // Sampled() == false
	mgr := NewSnapshotManager(stub)
	b := NewBatcher(mgr, Config{
		MaxBatch: 1, Workers: 1, QueueCap: 4,
		Degrade: DegradePolicy{HighWater: 0.25, After: 1},
	})
	defer b.Close()

	done := make(chan Result, 3)
	for i := 0; i < 3; i++ {
		go func() {
			r, err := b.Submit(context.Background(), entry(2))
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			done <- r
		}()
	}
	for i := 0; i < 3; i++ {
		<-stub.entered
		stub.release <- struct{}{}
	}
	for i := 0; i < 3; i++ {
		if r := <-done; r.Degraded {
			t.Fatal("degraded response from a predictor without sampling")
		}
	}
	if st := b.Stats(); st.DegradedServed != 0 {
		t.Fatalf("stats %+v, want no degraded serves", st)
	}
}
